package lscr

import (
	"context"
	"runtime"
	"testing"

	"lscr/internal/graph"
	"lscr/internal/lubm"
)

// Apply's allocation ceilings for one 16-op batch on LUBM-1, measured
// on linux/amd64 with Go 1.24 at 92 allocs and 15,168 B per batch, plus
// about 10 % and 20 % slack for layout drift between Go releases. A
// change that lowers the figures lowers the ceilings with it; one that
// raises them says why.
const (
	applyAllocsCeiling = 100
	applyBytesCeiling  = 18 << 10
)

// TestApplyAllocBudget holds Engine.Apply's allocations per 16-op batch
// (8 deletes, 8 adds) on a warm-cache LUBM-1 engine under a ceiling:
// at the commit rates a writer sustains, a per-batch allocation is
// garbage the readers' GC pays for. The batch deletes eight takesCourse
// edges and adds them back, so every run commits a real batch over the
// same edge multiset.
func TestApplyAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	g := lubm.Generate(lubm.DefaultConfig(1))
	eng := NewEngine(FromGraph(g), Options{IndexSeed: 1, CompactAfter: -1})
	ctx := context.Background()
	for _, c := range lubm.Constraints() {
		for _, alg := range []Algorithm{INS, UIS} {
			if _, err := eng.Query(ctx, Request{Source: "Department0.University0", Target: "University0",
				Constraint: c.SPARQL, Algorithm: alg}); err != nil {
				t.Fatalf("warming %s: %v", c.Name, err)
			}
		}
	}
	if st := eng.CacheStats(); st.Entries != len(lubm.Constraints()) {
		t.Fatalf("warm cache holds %d entries, want %d", st.Entries, len(lubm.Constraints()))
	}

	takes, ok := g.LabelByName(lubm.PropTakesCourse)
	if !ok {
		t.Fatal("LUBM graph has no takesCourse label")
	}
	var batch []Mutation
	for v := graph.VertexID(0); len(batch) < 8 && int(v) < g.NumVertices(); v++ {
		if out := g.OutWith(v, takes); len(out) > 0 {
			batch = append(batch, Mutation{Op: OpDeleteEdge,
				Subject: g.VertexName(v), Label: lubm.PropTakesCourse, Object: g.VertexName(out[0].To)})
		}
	}
	for _, m := range batch[:8] {
		m.Op = OpAddEdge
		batch = append(batch, m)
	}
	if len(batch) != 16 {
		t.Fatalf("batch has %d ops, want 16", len(batch))
	}

	apply := func() {
		if _, err := eng.Apply(ctx, batch); err != nil {
			t.Fatal(err)
		}
	}
	apply() // the first batch builds the overlay's spine
	const runs = 64
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		apply()
	}
	runtime.ReadMemStats(&after)
	allocs := (after.Mallocs - before.Mallocs) / runs
	bytes := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("Apply of a 16-op batch: %d allocs, %d B", allocs, bytes)
	if allocs > applyAllocsCeiling {
		t.Errorf("Apply allocates %d times per batch, ceiling %d", allocs, applyAllocsCeiling)
	}
	if bytes > applyBytesCeiling {
		t.Errorf("Apply allocates %d B per batch, ceiling %d B", bytes, applyBytesCeiling)
	}
}

// TestQueryAllocBudget holds Engine.Query's allocations per request on
// the fincrime fixture, with the constraint cache warm, at the counts
// measured on linux/amd64 with Go 1.24: every read allocates its
// garbage on the readers' own GC budget, so a request shape that starts
// allocating more shows here before it shows in a latency percentile.
// Only a witness allocates: it names the walk's hops and vertices.
func TestQueryAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	eng := NewEngine(loadFincrime(t), Options{CompactAfter: -1})
	const (
		amy    = `SELECT ?x WHERE { ?x <married-to> <Amy>. }`
		sender = `SELECT ?x WHERE { ?x <transfer2019-04> ?y. }`
	)
	base := Request{Source: "SuspectC", Target: "SuspectP", Labels: []string{"transfer2019-04", "married-to"}}
	rows := []struct {
		name    string
		req     Request
		ceiling float64
	}{
		{"INS", Request{Constraint: amy}, 0},
		{"UIS", Request{Constraint: amy, Algorithm: UIS}, 0},
		{"UIS*", Request{Constraint: amy, Algorithm: UISStar}, 0},
		{"INS/witness", Request{Constraint: amy, WantWitness: true}, 10},
		{"UIS/witness", Request{Constraint: amy, Algorithm: UIS, WantWitness: true}, 10},
		{"conjunction", Request{Constraints: []string{amy, sender}}, 0},
		{"conjunction/witness", Request{Constraints: []string{amy, sender}, WantWitness: true}, 10},
		{"unsatisfiable", Request{Constraint: `SELECT ?x WHERE { ?x <married-to> <Nobody>. }`}, 0},
	}
	ctx := context.Background()
	for _, row := range rows {
		req := row.req
		req.Source, req.Target, req.Labels = base.Source, base.Target, base.Labels
		query := func() {
			resp, err := eng.Query(ctx, req)
			if err != nil {
				t.Fatalf("%s: %v", row.name, err)
			}
			if req.WantWitness && resp.Witness == nil {
				t.Fatalf("%s: no witness", row.name)
			}
		}
		query() // compile the constraints into the cache
		if got := testing.AllocsPerRun(100, query); got > row.ceiling {
			t.Errorf("%s: %v allocs per Query, ceiling %v", row.name, got, row.ceiling)
		} else {
			t.Logf("%s: %v allocs per Query", row.name, got)
		}
	}
}
