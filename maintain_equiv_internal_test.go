package lscr

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"lscr/internal/graph"
)

// The maintained-index equivalence tier, engine-level: after every
// committed batch of a random mutation script, an engine whose local
// index is maintained incrementally (the default) must be
// indistinguishable from an engine rebuilt from scratch on the prefix's
// final edge set — for INS including bit-identical Stats against a
// frozen-assignment rebuild of the maintained index, which removes the
// one degree of freedom (landmark re-selection under changed degrees)
// that a plain rebuild legitimately has.
//
// Test names carry "Mutate" so the race-enabled CI tier runs them.

// maintSeed builds a deterministic named seed graph plus a mutation
// script over it. Deletes always target a surviving edge (tracked in a
// shadow multiset); inserts sometimes intern brand-new vertices.
func maintSeed(seed int64, n, nLabels, nEdges, batches, ops int) (*KG, [][]Mutation) {
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder()
	for i := 0; i < nLabels; i++ {
		b.Label(fmt.Sprintf("l%d", i))
	}
	for i := 0; i < n; i++ {
		b.Vertex(fmt.Sprintf("v%d", i))
	}
	type edge struct{ s, l, t string }
	var edges []edge
	for i := 0; i < nEdges; i++ {
		e := edge{
			fmt.Sprintf("v%d", rng.Intn(n)),
			fmt.Sprintf("l%d", rng.Intn(nLabels)),
			fmt.Sprintf("v%d", rng.Intn(n)),
		}
		b.AddEdgeNames(e.s, e.l, e.t)
		edges = append(edges, e)
	}
	var script [][]Mutation
	for bi := 0; bi < batches; bi++ {
		var batch []Mutation
		for oi := 0; oi < ops; oi++ {
			if len(edges) > 0 && rng.Intn(3) == 0 {
				i := rng.Intn(len(edges))
				e := edges[i]
				edges = append(edges[:i], edges[i+1:]...)
				batch = append(batch, Mutation{Op: OpDeleteEdge, Subject: e.s, Label: e.l, Object: e.t})
				continue
			}
			e := edge{
				fmt.Sprintf("v%d", rng.Intn(n)),
				fmt.Sprintf("l%d", rng.Intn(nLabels)),
				fmt.Sprintf("v%d", rng.Intn(n)),
			}
			if rng.Intn(6) == 0 {
				e.s = fmt.Sprintf("w%d_%d", bi, oi)
			}
			edges = append(edges, e)
			batch = append(batch, Mutation{Op: OpAddEdge, Subject: e.s, Label: e.l, Object: e.t})
		}
		script = append(script, batch)
	}
	return &KG{g: b.Build()}, script
}

// maintRequests covers all four algorithms over an endpoint/label grid.
func maintRequests(n, nLabels int) []Request {
	consts := []string{
		`SELECT ?x WHERE { ?x <l0> <v1>. }`,
		`SELECT ?x WHERE { <v2> <l1> ?x. }`,
		`SELECT ?x WHERE { ?x <l0> ?y. ?y <l1> <v3>. }`,
	}
	algos := []Algorithm{INS, UIS, UISStar, Conjunctive}
	var reqs []Request
	for i := 0; i < 24; i++ {
		req := Request{
			Source:    fmt.Sprintf("v%d", (i*7)%n),
			Target:    fmt.Sprintf("v%d", (i*13+5)%n),
			Algorithm: algos[i%len(algos)],
		}
		if i%3 != 0 {
			req.Labels = []string{fmt.Sprintf("l%d", i%nLabels)}
		}
		if req.Algorithm == Conjunctive {
			req.Constraints = []string{consts[i%len(consts)], consts[(i+1)%len(consts)]}
		} else {
			req.Constraint = consts[i%len(consts)]
		}
		reqs = append(reqs, req)
	}
	return reqs
}

func maintOutcomeEqual(a, b QueryOutcome, withStats bool) error {
	if (a.Err == nil) != (b.Err == nil) {
		return fmt.Errorf("error mismatch: %v vs %v", a.Err, b.Err)
	}
	if a.Err != nil {
		return nil
	}
	if a.Response.Reachable != b.Response.Reachable {
		return fmt.Errorf("reachable %v vs %v", a.Response.Reachable, b.Response.Reachable)
	}
	if withStats && (a.Response.Stats != b.Response.Stats || a.Response.SatisfyingVertices != b.Response.SatisfyingVertices) {
		return fmt.Errorf("stats {%+v vs=%d} vs {%+v vs=%d}",
			a.Response.Stats, a.Response.SatisfyingVertices,
			b.Response.Stats, b.Response.SatisfyingVertices)
	}
	return nil
}

// frozenOracleEngine wraps a from-scratch frozen-assignment rebuild of
// ep's index in a throwaway engine, so INS runs through the identical
// public path against an index that shares ep's landmark assignment but
// none of its incremental history.
func frozenOracleEngine(e *Engine, ep *epoch) *Engine {
	eo := &Engine{opts: e.opts}
	eo.ep.Store(eo.newEpoch(ep.seq, ep.kg.g, ep.idx.RebuildFrozen(ep.kg.g), lastTouch{}))
	return eo
}

// TestMutateMaintainedEquivalence is the headline property over a seed
// matrix: at every mutation prefix the maintained engine answers every
// algorithm exactly like a from-scratch rebuild (bit-identical Stats
// for the index-free family), INS Stats are bit-identical to the
// frozen-assignment oracle, and the index stays bound to the published
// view.
func TestMutateMaintainedEquivalence(t *testing.T) {
	const n, nLabels = 40, 3
	opts := Options{Landmarks: 16, IndexSeed: 7, CompactAfter: -1}
	reqs := maintRequests(n, nLabels)
	ctx := context.Background()
	bo := BatchOptions{Concurrency: 4}

	for _, seed := range []int64{3, 59, 271} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			kg, script := maintSeed(seed, n, nLabels, 200, 6, 10)
			em := NewEngine(kg, opts)
			for step, batch := range script {
				if _, err := em.Apply(ctx, batch); err != nil {
					t.Fatalf("step %d: Apply: %v", step, err)
				}
				ep := em.current()
				if ep.idx.Graph() != ep.kg.g {
					t.Fatalf("step %d: maintained index not bound to the published view", step)
				}

				// Rebuild oracle: a fresh engine on the prefix's final edge
				// set (Compact preserves IDs, so dictionaries line up).
				er := NewEngine(&KG{g: ep.kg.g.Compact()}, opts)
				want := er.QueryBatch(ctx, reqs, bo)
				got := em.QueryBatch(ctx, reqs, bo)
				for i := range reqs {
					withStats := reqs[i].Algorithm != INS
					if err := maintOutcomeEqual(got[i], want[i], withStats); err != nil {
						t.Errorf("step %d, request %d (%v): %v", step, i, reqs[i].Algorithm, err)
					}
				}

				// Frozen oracle: INS bit-identical, Stats included — the
				// incremental index behaves exactly like a clean rebuild
				// under the same landmark assignment.
				eo := frozenOracleEngine(em, ep)
				oracle := eo.QueryBatch(ctx, reqs, bo)
				for i := range reqs {
					if reqs[i].Algorithm != INS {
						continue
					}
					if err := maintOutcomeEqual(got[i], oracle[i], true); err != nil {
						t.Errorf("step %d, request %d (INS vs frozen oracle): %v", step, i, err)
					}
				}
				if t.Failed() {
					t.FailNow()
				}
			}
			if em.IndexMaintenance().Batches == 0 {
				t.Fatal("script never exercised the maintenance path")
			}
		})
	}
}

// TestMutateMaintainedCompactionCatchUp drives the compactBarrier seam
// with maintenance ON: a batch committed while the compactor rebuilds
// must be folded into the swapped epoch's index by the catch-up
// maintenance (replayed ops), leaving the index exact — not merely the
// graph.
func TestMutateMaintainedCompactionCatchUp(t *testing.T) {
	kg, script := maintSeed(29, 30, 2, 120, 1, 8)
	em := NewEngine(kg, Options{Landmarks: 8, IndexSeed: 3, CompactAfter: -1})
	ctx := context.Background()
	if _, err := em.Apply(ctx, script[0]); err != nil {
		t.Fatal(err)
	}

	compactBarrier = func() {
		compactBarrier = nil
		if _, err := em.Apply(ctx, []Mutation{
			{Op: OpAddEdge, Subject: "v1", Label: "l0", Object: "v4"},
			{Op: OpAddEdge, Subject: "late", Label: "l1", Object: "v2"},
		}); err != nil {
			t.Errorf("apply during compaction: %v", err)
		}
	}
	defer func() { compactBarrier = nil }()
	if did, err := em.Compact(ctx); err != nil || !did {
		t.Fatalf("Compact = %v, %v", did, err)
	}

	ep := em.current()
	if ep.idx.Graph() != ep.kg.g {
		t.Fatal("catch-up left the index bound to a stale view")
	}
	if err := ep.idx.EqualStructure(ep.idx.RebuildFrozen(ep.kg.g)); err != nil {
		t.Fatalf("caught-up index diverged from frozen rebuild: %v", err)
	}
}
