package lscr

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"lscr/internal/graph"
	"lscr/internal/labelset"
	"lscr/internal/lubm"
	"lscr/internal/testkg"
)

// mutStep applies one random batch of edge mutations to g and returns
// the new view plus the batch's op stream. Inserts may target brand-new
// vertices and labels; deletes always target a surviving edge instance.
func mutStep(rng *rand.Rand, g *graph.Graph, ops int) (*graph.Graph, []graph.EdgeOp) {
	d := graph.NewDelta(g)
	var triples []graph.Triple
	g.Triples(func(t graph.Triple) bool {
		triples = append(triples, t)
		return true
	})
	for i := 0; i < ops; i++ {
		switch {
		case len(triples) > 0 && rng.Intn(3) == 0:
			tr := triples[rng.Intn(len(triples))]
			if err := d.DeleteEdge(tr.Subject, tr.Label, tr.Object); err != nil {
				continue // instance already exhausted by an earlier staged delete
			}
		case rng.Intn(5) == 0:
			// Fresh vertex (sometimes fresh label): exercises the
			// beyond-indexed-range paths.
			s := fmt.Sprintf("fresh%d", rng.Intn(8))
			t := fmt.Sprintf("fresh%d", rng.Intn(8))
			l := fmt.Sprintf("freshl%d", rng.Intn(2))
			if rng.Intn(2) == 0 {
				t = g.VertexName(graph.VertexID(rng.Intn(g.NumVertices())))
			}
			if err := d.AddEdgeNames(s, l, t); err != nil {
				continue
			}
		default:
			s := graph.VertexID(rng.Intn(d.NewVertices() + g.NumVertices()))
			t := graph.VertexID(rng.Intn(d.NewVertices() + g.NumVertices()))
			l := graph.Label(rng.Intn(g.NumLabels()))
			if err := d.AddEdge(s, l, t); err != nil {
				continue
			}
		}
	}
	ops2 := d.EdgeOps()
	g2, err := d.Commit()
	if err != nil {
		panic(err)
	}
	return g2, ops2
}

// TestMaintainStructuralEquivalence is the core exactness property: after
// every batch of a random mutation script, the incrementally maintained
// index is structurally identical — materialised II/EIT enumeration
// orders, D rows, dirty flags — to a from-scratch frozen-assignment
// rebuild on the batch's final view.
func TestMaintainStructuralEquivalence(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(24) + 4
		g := testkg.Random(rng, n, rng.Intn(3*n), rng.Intn(3)+1)
		idx := NewLocalIndex(g, IndexParams{K: rng.Intn(n) + 1, Seed: seed})
		parentEntries := idx.Entries()
		cur := idx
		for batch := 0; batch < 5; batch++ {
			g2, ops := mutStep(rng, cur.Graph(), rng.Intn(8)+1)
			next, _ := cur.ApplyMutations(g2, ops)
			if next.Graph() != g2 {
				t.Logf("seed %d batch %d: derived index not bound to new view", seed, batch)
				return false
			}
			if err := next.EqualStructure(next.RebuildFrozen(g2)); err != nil {
				t.Logf("seed %d batch %d: %v", seed, batch, err)
				return false
			}
			cur = next
		}
		// Copy-on-write: the original index must be untouched by every
		// derivation along the way.
		if idx.Entries() != parentEntries || idx.Graph() != g {
			t.Logf("seed %d: parent index mutated by derivation", seed)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestMaintainDeleteDirtiesOnlySourceRegion: a deletion invalidates
// exactly the landmark owning the deleted edge's source region — every
// other landmark stays exact and prunable.
func TestMaintainDeleteDirtiesOnlySourceRegion(t *testing.T) {
	checkOneOpDirtiesSourceRegion(t, true)
}

// TestMaintainInsertDirtiesOnlySourceRegion: an insertion is maintained
// by the same rule as a deletion — exactly the landmark owning the new
// edge's source region goes dirty.
func TestMaintainInsertDirtiesOnlySourceRegion(t *testing.T) {
	checkOneOpDirtiesSourceRegion(t, false)
}

// checkOneOpDirtiesSourceRegion applies one edge op sourced inside a
// region — deleting an existing edge, or inserting a parallel copy of it
// — and checks that exactly that region's landmark goes dirty, the
// derived index passes the frozen-rebuild oracle and the parent index is
// untouched.
func checkOneOpDirtiesSourceRegion(t *testing.T, del bool) {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	g := testkg.Random(rng, 40, 160, 3)
	idx := NewLocalIndex(g, IndexParams{K: 10, Seed: 11})
	var victim graph.Triple
	found := false
	g.Triples(func(tr graph.Triple) bool {
		if idx.Region(tr.Subject) != graph.NoVertex {
			victim, found = tr, true
			return false
		}
		return true
	})
	if !found {
		t.Skip("no edge sourced inside a region")
	}
	d := graph.NewDelta(g)
	op := d.AddEdge
	if del {
		op = d.DeleteEdge
	}
	if err := op(victim.Subject, victim.Label, victim.Object); err != nil {
		t.Fatal(err)
	}
	ops := d.EdgeOps()
	g2, err := d.Commit()
	if err != nil {
		t.Fatal(err)
	}
	cur, mb := idx.ApplyMutations(g2, ops)
	if mb.LandmarksInvalidated != 1 || cur.DirtyLandmarks() != 1 {
		t.Fatalf("one in-region op invalidated %d landmarks (dirty=%d)", mb.LandmarksInvalidated, cur.DirtyLandmarks())
	}
	own := idx.Region(victim.Subject)
	for _, u := range cur.Landmarks() {
		if cur.Dirty(u) != (u == own) {
			t.Fatalf("landmark %d dirty=%v, want dirty only for %d", u, cur.Dirty(u), own)
		}
	}
	if err := cur.EqualStructure(cur.RebuildFrozen(g2)); err != nil {
		t.Fatal(err)
	}
	// The parent index is untouched.
	if idx.DirtyLandmarks() != 0 {
		t.Fatal("derivation dirtied the parent index")
	}
}

// TestMaintainDerivedSharesEntries: maintenance never rewrites entries,
// so through insert and delete batches alike every derived index holds
// its parent's per-landmark II, EIT and D slices themselves, not copies.
func TestMaintainDerivedSharesEntries(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := testkg.Random(rng, 40, 160, 3)
	cur := NewLocalIndex(g, IndexParams{K: 10, Seed: 5})
	// The first batch inserts an edge out of every landmark; the rest
	// are random.
	d := graph.NewDelta(g)
	for _, u := range cur.Landmarks() {
		if err := d.AddEdge(u, 0, u); err != nil {
			t.Fatal(err)
		}
	}
	ops := d.EdgeOps()
	g2, err := d.Commit()
	if err != nil {
		t.Fatal(err)
	}
	for batch := 0; batch < 8; batch++ {
		if batch > 0 {
			g2, ops = mutStep(rng, cur.Graph(), rng.Intn(8)+1)
		}
		next, _ := cur.ApplyMutations(g2, ops)
		for li, u := range cur.Landmarks() {
			if !sameSlice(next.iiSorted[li], cur.iiSorted[li]) ||
				!sameSlice(next.eitSorted[li], cur.eitSorted[li]) ||
				!sameSlice(next.drows[li], cur.drows[li]) {
				t.Fatalf("batch %d: landmark %d's entries were copied or rewritten", batch, u)
			}
		}
		cur = next
	}
}

// sameSlice reports whether a and b are the same slice: equal length
// over the same backing array.
func sameSlice[T any](a, b []T) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// countingTracer counts index-driven close-state transitions (Cut/Push
// markings) — the observable footprint of live landmark pruning.
type countingTracer struct{ viaIndex, transitions int }

func (c *countingTracer) Transition(v graph.VertexID, st State, parent graph.VertexID, label graph.Label, viaIndex bool) {
	c.transitions++
	if viaIndex {
		c.viaIndex++
	}
}
func (c *countingTracer) Invocation(sStar, tStar graph.VertexID, fromSat bool) {}

// TestMaintainPruningRecovers: after an insert-only batch the
// maintained index must keep INS's landmark pruning live on its clean
// landmarks (index-driven markings occur, Stats bit-identical to a
// frozen-assignment rebuild),
// whereas the stale pre-batch index is refused outright with
// ErrIndexMismatch: INS serves only the view its index describes.
func TestMaintainPruningRecovers(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	g := testkg.Random(rng, 60, 240, 3)
	idx := NewLocalIndex(g, IndexParams{K: 12, Seed: 21})

	// Insert-only batch.
	d := graph.NewDelta(g)
	for i := 0; i < 24; i++ {
		if err := d.AddEdge(graph.VertexID(rng.Intn(60)), graph.Label(rng.Intn(3)), graph.VertexID(rng.Intn(60))); err != nil {
			t.Fatal(err)
		}
	}
	ops := d.EdgeOps()
	g2, err := d.Commit()
	if err != nil {
		t.Fatal(err)
	}
	maintained, _ := idx.ApplyMutations(g2, ops)
	oracle := maintained.RebuildFrozen(g2)
	cons := manyMatchConstraint(g2)

	prunedSomewhere := false
	for si := 0; si < 12; si++ {
		q := Query{
			Source:     graph.VertexID((si * 11) % 60),
			Target:     graph.VertexID((si*17 + 3) % 60),
			Labels:     g2.LabelUniverse(),
			Constraint: cons,
		}
		if si%2 == 1 {
			q.Labels = labelset.New(0, 1)
		}

		var mtr, otr, str countingTracer
		mok, mst, err := INSTraced(g2, maintained, q, nil, &mtr)
		if err != nil {
			t.Fatal(err)
		}
		ook, ost, err := INSTraced(g2, oracle, q, nil, &otr)
		if err != nil {
			t.Fatal(err)
		}
		// Maintained vs frozen rebuild: bit-identical Stats — INS has
		// recovered to static-index behaviour, not merely equal answers.
		if mok != ook || mst != ost {
			t.Fatalf("query %d: maintained INS (%v %+v) != frozen rebuild (%v %+v)", si, mok, mst, ook, ost)
		}
		if mtr.viaIndex > 0 {
			prunedSomewhere = true
		}

		// Stale index (the pre-batch one): refused before any marking.
		if _, _, err := INSTraced(g2, idx, q, nil, &str); !errors.Is(err, ErrIndexMismatch) {
			t.Fatalf("query %d: stale index: err = %v, want ErrIndexMismatch", si, err)
		}
		if str.viaIndex != 0 {
			t.Fatalf("query %d: stale index drove %d markings", si, str.viaIndex)
		}
		uok, _, err := UIS(g2, q)
		if err != nil {
			t.Fatal(err)
		}
		if mok != uok {
			t.Fatalf("query %d: answers diverge: maintained=%v uis=%v", si, mok, uok)
		}
	}
	if !prunedSomewhere {
		t.Fatal("no query exercised landmark pruning on the maintained index; workload too weak")
	}
}

// TestMaintainDirtyLandmarkExcluded: with a deletion-dirtied landmark,
// INS on the maintained index answers exactly like UIS (soundness:
// the stale entries must not be trusted), while clean landmarks keep
// pruning.
func TestMaintainDirtyLandmarkExcluded(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(30) + 10
		g := testkg.Random(rng, n, rng.Intn(4*n)+n, rng.Intn(3)+1)
		cur := NewLocalIndex(g, IndexParams{K: rng.Intn(8) + 2, Seed: seed})
		for batch := 0; batch < 3; batch++ {
			g2, ops := mutStep(rng, cur.Graph(), rng.Intn(10)+2)
			cur, _ = cur.ApplyMutations(g2, ops)
		}
		g = cur.Graph()
		cons := manyMatchConstraint(g)
		for si := 0; si < 8; si++ {
			q := Query{
				Source:     graph.VertexID(rng.Intn(n)),
				Target:     graph.VertexID(rng.Intn(n)),
				Labels:     labelset.Set(rng.Uint64()) & g.LabelUniverse(),
				Constraint: cons,
			}
			iok, _, err := INS(g, cur, q, nil)
			if err != nil {
				t.Fatal(err)
			}
			uok, _, err := UIS(g, q)
			if err != nil {
				t.Fatal(err)
			}
			if iok != uok {
				t.Logf("seed %d: INS=%v UIS=%v (dirty=%d) for %+v", seed, iok, uok, cur.DirtyLandmarks(), q)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkApplyMutations times index maintenance on LUBM-4 under a
// script shaped like the write-mix benchmark workload: every batch adds
// 8 edges through the four predicates that workload mutates (between
// vertices already carrying them) and deletes the 8 edges added 50
// batches earlier. The script is committed up front, without seals; one
// op is one batch's ApplyMutations over batches 50-599, wrapping back
// to batch 50's index.
func BenchmarkApplyMutations(b *testing.B) {
	const (
		adds    = 8
		lag     = 50
		batches = 600
	)
	g := lubm.Generate(lubm.DefaultConfig(4))
	var preds []graph.Label
	for _, name := range []string{lubm.PropPublicationAuthor, lubm.PropTeachingAssistant, lubm.PropHeadOf, lubm.PropHasSubOrganization} {
		if l, ok := g.LabelByName(name); ok {
			preds = append(preds, l)
		}
	}
	subjects := make([][]graph.VertexID, len(preds))
	objects := make([][]graph.VertexID, len(preds))
	g.Triples(func(t graph.Triple) bool {
		if p := slices.Index(preds, t.Label); p >= 0 {
			subjects[p] = append(subjects[p], t.Subject)
			objects[p] = append(objects[p], t.Object)
		}
		return true
	})
	for p := range preds {
		slices.Sort(subjects[p])
		subjects[p] = slices.Compact(subjects[p])
		slices.Sort(objects[p])
		objects[p] = slices.Compact(objects[p])
	}

	rng := rand.New(rand.NewSource(1))
	views := make([]*graph.Graph, batches)
	ops := make([][]graph.EdgeOp, batches)
	var recent [lag][]graph.Triple
	cur := g
	for i := range views {
		d := graph.NewDelta(cur)
		added := make([]graph.Triple, 0, adds)
		for range adds {
			p := rng.Intn(len(preds))
			t := graph.Triple{Subject: subjects[p][rng.Intn(len(subjects[p]))], Label: preds[p], Object: objects[p][rng.Intn(len(objects[p]))]}
			if err := d.AddEdge(t.Subject, t.Label, t.Object); err != nil {
				b.Fatal(err)
			}
			added = append(added, t)
		}
		for _, t := range recent[i%lag] {
			if err := d.DeleteEdge(t.Subject, t.Label, t.Object); err != nil {
				b.Fatal(err)
			}
		}
		recent[i%lag] = added
		ops[i] = d.EdgeOps()
		var err error
		if cur, err = d.Commit(); err != nil {
			b.Fatal(err)
		}
		views[i] = cur
	}

	warm := NewLocalIndex(g, IndexParams{})
	for i := range lag {
		warm, _ = warm.ApplyMutations(views[i], ops[i])
	}
	b.ReportAllocs()
	idx, j := warm, lag
	for b.Loop() {
		if j == batches {
			idx, j = warm, lag
		}
		idx, _ = idx.ApplyMutations(views[j], ops[j])
		j++
	}
}
