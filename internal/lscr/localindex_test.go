package lscr

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"

	"lscr/internal/graph"
	"lscr/internal/labelset"
	"lscr/internal/lcr"
	"lscr/internal/pattern"
	"lscr/internal/rdf"
	"lscr/internal/testkg"
)

func TestDefaultKValues(t *testing.T) {
	if DefaultK(0) != 0 {
		t.Error("DefaultK(0) != 0")
	}
	if DefaultK(1) != 1 {
		t.Errorf("DefaultK(1) = %d", DefaultK(1))
	}
	// log2(1024)*sqrt(1024) = 10*32 = 320.
	if got := DefaultK(1024); got != 320 {
		t.Errorf("DefaultK(1024) = %d, want 320", got)
	}
	if got := DefaultK(4); got > 4 {
		t.Errorf("DefaultK(4) = %d exceeds |V|", got)
	}
}

func TestLandmarkCountAndRegions(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := testkg.Random(rng, 50, 150, 4)
	idx := NewLocalIndex(g, IndexParams{K: 7, Seed: 9})
	if len(idx.Landmarks()) != 7 {
		t.Fatalf("landmarks = %d, want 7", len(idx.Landmarks()))
	}
	for _, u := range idx.Landmarks() {
		if !idx.IsLandmark(u) {
			t.Errorf("IsLandmark(%d) = false", u)
		}
		if idx.Region(u) != u {
			t.Errorf("landmark %d not in its own region (AF=%v)", u, idx.Region(u))
		}
	}
}

// TestBFSTraversePartition: every assigned vertex must be reachable from
// its region landmark (unconstrained), because BFSTraverse only extends a
// region along edges from vertices already in it.
func TestBFSTraversePartition(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(30) + 2
		g := testkg.Random(rng, n, rng.Intn(80), rng.Intn(4)+1)
		idx := NewLocalIndex(g, IndexParams{K: rng.Intn(n) + 1, Seed: seed})
		for v := 0; v < n; v++ {
			u := idx.Region(graph.VertexID(v))
			if u == graph.NoVertex {
				continue
			}
			if !idx.IsLandmark(u) {
				return false
			}
			if !lcr.Reach(g, u, graph.VertexID(v), g.LabelUniverse()) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// regionSubgraph extracts F(u) as a standalone graph, with idMap mapping
// original IDs to subgraph IDs.
func regionSubgraph(g *graph.Graph, idx *LocalIndex, u graph.VertexID) (*graph.Graph, map[graph.VertexID]graph.VertexID) {
	b := graph.NewBuilder()
	idMap := map[graph.VertexID]graph.VertexID{}
	for v := 0; v < g.NumVertices(); v++ {
		if idx.Region(graph.VertexID(v)) == u {
			idMap[graph.VertexID(v)] = b.Vertex(g.VertexName(graph.VertexID(v)))
		}
	}
	for i := 0; i < g.NumLabels(); i++ {
		b.Label(g.LabelName(graph.Label(i)))
	}
	g.Triples(func(tr graph.Triple) bool {
		s, okS := idMap[tr.Subject]
		o, okO := idMap[tr.Object]
		if okS && okO {
			b.AddEdge(s, tr.Label, o)
		}
		return true
	})
	return b.Build(), idMap
}

// TestIIConsistency is Theorem 5.2: II[u][v] must equal M(u, v | F(u))
// computed independently on the extracted region subgraph.
func TestIIConsistency(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(20) + 2
		g := testkg.Random(rng, n, rng.Intn(60), rng.Intn(4)+1)
		idx := NewLocalIndex(g, IndexParams{K: rng.Intn(4) + 1, Seed: seed})
		for _, u := range idx.Landmarks() {
			sub, idMap := regionSubgraph(g, idx, u)
			want := lcr.SourceCMS(sub, idMap[u])
			for v, subID := range idMap {
				got := idx.II(u, v)
				w := want[subID]
				if (got == nil) != (w == nil) {
					return false
				}
				if got != nil && !got.Equal(w) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestEITSoundness is Theorem 5.1: for every EIT[u] pair (L, V) and every
// v ∈ V, the label set L must witness u -L-> v in the full graph.
func TestEITSoundness(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(20) + 2
		g := testkg.Random(rng, n, rng.Intn(60), rng.Intn(4)+1)
		idx := NewLocalIndex(g, IndexParams{K: rng.Intn(4) + 1, Seed: seed})
		for _, u := range idx.Landmarks() {
			for _, e := range idx.eitSorted[idx.lmIdx[u]] {
				for _, w := range e.ws {
					if !lcr.Reach(g, u, w, e.key) {
						return false
					}
					if idx.Region(w) == u {
						return false // EIT targets must be outside F(u)
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestEITCompleteness: every boundary edge (v, l, w) with v ∈ F(u) and
// w ∉ F(u) must be represented — some EIT key ⊆ (labels of a region path
// to v) ∪ {l} maps to w.
func TestEITCompleteness(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := testkg.Random(rng, 25, 70, 3)
	idx := NewLocalIndex(g, IndexParams{K: 3, Seed: 5})
	for _, u := range idx.Landmarks() {
		g.Triples(func(tr graph.Triple) bool {
			if idx.Region(tr.Subject) != u || idx.Region(tr.Object) == u {
				return true
			}
			// Some EIT entry must name tr.Object.
			found := false
			for _, e := range idx.eitSorted[idx.lmIdx[u]] {
				for _, w := range e.ws {
					if w == tr.Object {
						found = true
					}
				}
			}
			if !found {
				t.Errorf("boundary edge %v -> %v of region %d missing from EIT", tr.Subject, tr.Object, u)
			}
			return true
		})
	}
}

func TestDConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	g := testkg.Random(rng, 30, 90, 3)
	idx := NewLocalIndex(g, IndexParams{K: 4, Seed: 7})
	for _, u := range idx.Landmarks() {
		for _, x := range idx.Landmarks() {
			d := idx.D(u, x)
			if d < 0 {
				t.Fatalf("negative D(%d,%d)", u, x)
			}
			// D counts boundary targets of EI[u] inside F(x): recount.
			targets := map[graph.VertexID]bool{}
			for _, e := range idx.eitSorted[idx.lmIdx[u]] {
				for _, w := range e.ws {
					targets[w] = true
				}
			}
			count := 0
			for w := range targets {
				if idx.Region(w) == x {
					count++
				}
			}
			if count != d {
				t.Errorf("D(%d,%d) = %d, recount %d", u, x, d, count)
			}
		}
	}
}

func TestRhoOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	g := testkg.Random(rng, 30, 90, 3)
	idx := NewLocalIndex(g, IndexParams{K: 4, Seed: 7})
	// Same-region pairs must look closest.
	var sameRegion, crossRegion []uint64
	for v := 0; v < g.NumVertices(); v++ {
		for w := 0; w < g.NumVertices(); w++ {
			rv, rw := idx.Region(graph.VertexID(v)), idx.Region(graph.VertexID(w))
			if rv == graph.NoVertex || rw == graph.NoVertex {
				continue
			}
			rho := idx.Rho(graph.VertexID(v), graph.VertexID(w))
			if rv == rw {
				sameRegion = append(sameRegion, rho)
			} else {
				crossRegion = append(crossRegion, rho)
			}
		}
	}
	for _, s := range sameRegion {
		for _, c := range crossRegion {
			if s > c {
				t.Fatalf("same-region rho %d worse than cross-region %d", s, c)
			}
		}
	}
}

// TestINSPrunesViaIndex builds a graph where the only route to the
// target runs through a landmark's region: INS must answer without ever
// expanding the region interior edge-by-edge, i.e. with strictly fewer
// search-tree nodes than UIS*.
func TestINSPrunesViaIndex(t *testing.T) {
	b := graph.NewBuilder()
	p := b.Label("p")
	s := b.Vertex("s")
	lm := b.Vertex("landmark")
	b.AddEdge(s, p, lm)
	// A long chain inside the landmark's region ending at the target.
	prev := lm
	for i := 0; i < 50; i++ {
		nxt := b.Vertex(vn(i))
		b.AddEdge(prev, p, nxt)
		prev = nxt
	}
	target := b.Vertex("target")
	b.AddEdge(prev, p, target)
	// A satisfying vertex adjacent to s.
	mark := b.Label("mark")
	key := b.Vertex("key")
	b.AddEdge(s, mark, key)
	b.AddEdgeNames("landmark", rdf.TypePredicate, "K")
	g := b.Build()

	cons := &pattern.Constraint{Focus: "x",
		Patterns: []pattern.TriplePattern{{Subject: pattern.V("x"), Label: mark, Object: pattern.C(key)}}}
	q := Query{Source: s, Target: target, Labels: g.LabelUniverse(), Constraint: cons}

	idx := NewLocalIndex(g, IndexParams{K: 1, Seed: 1})
	if idx.Landmarks()[0] != lm {
		t.Fatalf("landmark selection picked %v, want the class instance", idx.Landmarks())
	}
	ansINS, stINS, err := INS(g, idx, q, nil)
	if err != nil || !ansINS {
		t.Fatalf("INS: %v %v", ansINS, err)
	}
	ansU, stU, err := UISStar(g, q, nil)
	if err != nil || !ansU {
		t.Fatalf("UIS*: %v %v", ansU, err)
	}
	if stINS.SearchTreeNodes >= stU.SearchTreeNodes {
		t.Fatalf("INS did not prune: %d nodes vs UIS* %d", stINS.SearchTreeNodes, stU.SearchTreeNodes)
	}
	// The index short-circuit should answer after a handful of nodes,
	// not after walking the 50-vertex chain.
	if stINS.SearchTreeNodes > 10 {
		t.Fatalf("INS expanded %d nodes; the Check(II) short-circuit should fire early", stINS.SearchTreeNodes)
	}
}

// buildOnProcs builds the index with GOMAXPROCS set to procs, the
// build's worker count, and restores the previous setting.
func buildOnProcs(procs int, g *graph.Graph, p IndexParams) *LocalIndex {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	return NewLocalIndex(g, p)
}

// TestIndexWorkerInvariance: the index is bit-for-bit identical for any
// worker count — same landmarks, regions, II CMSes, EIT maps and D
// matrix, not just matching summary statistics.
func TestIndexWorkerInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	g := testkg.Random(rng, 80, 240, 4)
	seq := buildOnProcs(1, g, IndexParams{K: 9, Seed: 5})
	for _, workers := range []int{2, 4, 16} {
		par := buildOnProcs(workers, g, IndexParams{K: 9, Seed: 5})
		if par.Entries() != seq.Entries() || par.SizeBytes() != seq.SizeBytes() {
			t.Fatalf("workers=%d produced a different index", workers)
		}
		if !reflect.DeepEqual(par.landmarks, seq.landmarks) {
			t.Fatalf("workers=%d: landmark sets differ", workers)
		}
		if !reflect.DeepEqual(par.af, seq.af) {
			t.Fatalf("workers=%d: region assignment differs", workers)
		}
		if !reflect.DeepEqual(par.drows, seq.drows) {
			t.Fatalf("workers=%d: D matrix differs", workers)
		}
		if !reflect.DeepEqual(par.eitSorted, seq.eitSorted) {
			t.Fatalf("workers=%d: EIT differs", workers)
		}
		for _, u := range seq.Landmarks() {
			for v := 0; v < g.NumVertices(); v++ {
				a, b := seq.II(u, graph.VertexID(v)), par.II(u, graph.VertexID(v))
				if (a == nil) != (b == nil) || (a != nil && !a.Equal(b)) {
					t.Fatalf("workers=%d: II differs at (%d,%d)", workers, u, v)
				}
			}
		}
	}
}

// TestIndexWorkerInvarianceAnswers: beyond structural equality, the
// sequential and parallel indexes must answer a random INS workload
// identically, and identically to UIS (the index-free ground truth).
func TestIndexWorkerInvarianceAnswers(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	for trial := 0; trial < 3; trial++ {
		n := 40 + trial*25
		g := testkg.Random(rng, n, 3*n+trial*40, 4)
		seq := buildOnProcs(1, g, IndexParams{K: 7, Seed: 13})
		par := buildOnProcs(4, g, IndexParams{K: 7, Seed: 13})
		// "?x has an outgoing l0 edge" — satisfiable on any dense random KG.
		cons := &pattern.Constraint{
			Focus: "x",
			Patterns: []pattern.TriplePattern{
				{Subject: pattern.V("x"), Label: graph.Label(0), Object: pattern.V("y")},
			},
		}
		m, err := pattern.NewMatcher(g, cons)
		if err != nil {
			t.Fatal(err)
		}
		vs := m.MatchAll()
		for i := 0; i < 40; i++ {
			q := Query{
				Source:     graph.VertexID(rng.Intn(n)),
				Target:     graph.VertexID(rng.Intn(n)),
				Labels:     g.LabelUniverse().Remove(labelset.Label(rng.Intn(4))),
				Constraint: cons,
			}
			want, _, err := UIS(g, q)
			if err != nil {
				t.Fatal(err)
			}
			a, _, err := INS(g, seq, q, vs)
			if err != nil {
				t.Fatal(err)
			}
			b, _, err := INS(g, par, q, vs)
			if err != nil {
				t.Fatal(err)
			}
			if a != want || b != want {
				t.Fatalf("trial %d query %d: UIS=%v INS(seq)=%v INS(par)=%v", trial, i, want, a, b)
			}
		}
	}
}

func TestIndexDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	g := testkg.Random(rng, 40, 120, 4)
	a := NewLocalIndex(g, IndexParams{K: 5, Seed: 77})
	b := NewLocalIndex(g, IndexParams{K: 5, Seed: 77})
	if len(a.Landmarks()) != len(b.Landmarks()) {
		t.Fatal("landmark counts differ")
	}
	for i := range a.Landmarks() {
		if a.Landmarks()[i] != b.Landmarks()[i] {
			t.Fatal("landmark sets differ for equal seeds")
		}
	}
	if a.Entries() != b.Entries() || a.SizeBytes() != b.SizeBytes() {
		t.Fatal("index contents differ for equal seeds")
	}
}

func TestIndexSchemaDrivenSelection(t *testing.T) {
	// Landmarks must come from class instances, the tails of rdf:type
	// edges, when there are enough of them, not from raw degree.
	b := graph.NewBuilder()
	hub := b.Vertex("hub") // degree-heavy vertex, not an instance
	p := b.Label("p")
	for i := 0; i < 20; i++ {
		v := b.Vertex(vn(i))
		b.AddEdge(hub, p, v)
		b.AddEdge(v, p, hub)
		b.AddEdgeNames(vn(i), rdf.TypePredicate, "K")
	}
	g := b.Build()
	typ, _ := g.LabelByName(rdf.TypePredicate)
	k := g.Vertex("K")
	idx := NewLocalIndex(g, IndexParams{K: 4, Seed: 1})
	for _, u := range idx.Landmarks() {
		if u == hub {
			t.Fatal("degree-based hub chosen despite class instances")
		}
		if !g.HasEdge(u, typ, k) {
			t.Fatalf("landmark %d is not an instance of K", u)
		}
	}
}

func vn(i int) string { return "w" + string(rune('a'+i%26)) + string(rune('0'+i/26)) }

func TestIndexAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	g := testkg.Random(rng, 30, 90, 3)
	idx := NewLocalIndex(g, IndexParams{K: 3, Seed: 7})
	if idx.Entries() <= 0 || idx.SizeBytes() <= 0 {
		t.Fatal("index accounting not positive")
	}
}

func TestCheckAndEntriesHelpers(t *testing.T) {
	g, ids := testkg.RunningExample()
	// One landmark = whole reachable region from it.
	idx := NewLocalIndex(g, IndexParams{K: 1, Seed: 3})
	u := idx.Landmarks()[0]
	all := g.LabelUniverse()
	// Check must agree with within-region reachability; at minimum the
	// landmark reaches itself under any constraint.
	if !idx.Check(u, u, 0) {
		t.Error("Check(u,u,∅) = false")
	}
	count := 0
	idx.IIEntries(u, all, func(v graph.VertexID) { count++ })
	if count == 0 {
		t.Error("IIEntries produced nothing under the full universe")
	}
	_ = ids
	var outside int
	idx.EITEntries(u, all, func(v graph.VertexID) { outside++ })
	// With one landmark whose region is its reachable set, EIT may be
	// empty; just ensure the call is safe and consistent with eit size.
	want := 0
	for _, e := range idx.eitSorted[idx.lmIdx[u]] {
		want += len(e.ws)
	}
	if outside != want {
		t.Errorf("EITEntries visited %d, want %d", outside, want)
	}
}

func TestLabelsetImportKept(t *testing.T) {
	// Guard: Rho of unassigned vertices is the worst (0 with negation
	// convention), and Check of unknown pairs is false.
	g, _ := testkg.RunningExample()
	idx := NewLocalIndex(g, IndexParams{K: 1, Seed: 3})
	u := idx.Landmarks()[0]
	if idx.Check(u, graph.VertexID(0), labelset.Set(0)) && g.Vertex("v0") != u {
		// Only the landmark itself is reachable under the empty set.
		if idx.Region(0) == u && idx.II(u, 0) != nil && idx.II(u, 0).Covers(0) {
			t.Log("v0 reachable under empty set — acceptable only via empty CMS")
		} else {
			t.Error("Check inconsistent under empty label set")
		}
	}
}

// TestDSparseFootprint: D is stored as sparse rows, so its memory grows
// with the stored (landmark, count) entries and the landmark count, not
// with k². At the default k for 20k vertices a dense k×k int32 matrix
// alone would take 16 MB.
func TestDSparseFootprint(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := testkg.Random(rng, 20000, 70000, 8)
	idx := NewLocalIndex(g, IndexParams{Seed: 1})
	k := len(idx.Landmarks())
	if k != DefaultK(g.NumVertices()) {
		t.Fatalf("k = %d, want the default %d", k, DefaultK(g.NumVertices()))
	}
	nnz, held := 0, int64(24*len(idx.drows))
	for _, row := range idx.drows {
		nnz += len(row)
		held += int64(cap(row)) * 8
	}
	if nnz == 0 {
		t.Fatal("D is empty; the graph has no boundary pairs to count")
	}
	if bound := int64(16*nnz + 32*k); held > bound {
		t.Errorf("D holds %d bytes for %d entries over k=%d, want ≤ %d", held, nnz, k, bound)
	}
	fp := idx.Footprint()
	if fp.D > held {
		t.Errorf("Footprint().D = %d exceeds the %d bytes D holds", fp.D, held)
	}
	if sz := idx.SizeBytes(); sz != fp.Total() || sz >= 8<<20 {
		t.Errorf("SizeBytes = %d (parts sum %d), want the parts' sum and under 8 MiB; dense D would be %d",
			sz, fp.Total(), int64(4*k*k))
	}
	t.Logf("k=%d nnz=%d D=%d B (dense %d B) SizeBytes=%d", k, nnz, held, 4*k*k, idx.SizeBytes())
}

// TestDAtEveryRow checks dAt's windowed search against the row itself
// for every row shape a k-landmark index can store, k ≤ 10: each subset
// of the columns [0, k), from the empty row to the full one.
func TestDAtEveryRow(t *testing.T) {
	for k := 1; k <= 10; k++ {
		for mask := 0; mask < 1<<k; mask++ {
			var row []dEntry
			for x := 0; x < k; x++ {
				if mask&(1<<x) != 0 {
					row = append(row, dEntry{lm: uint32(x), n: int32(x + 1)})
				}
			}
			for x := 0; x < k; x++ {
				want := int32(0)
				if mask&(1<<x) != 0 {
					want = int32(x + 1)
				}
				if got := dAt(row, uint32(x), k); got != want {
					t.Fatalf("k=%d row %b: dAt(%d) = %d, want %d", k, mask, x, got, want)
				}
			}
		}
	}
}

// TestDMatchesBoundaryCount checks D and Rho against an independent
// dense recount: D(u, x) is the number of distinct boundary vertices
// EITEntries(u, universe) enumerates whose region is F(x). It covers
// fresh indexes and indexes maintained through insert and delete
// batches (a dirty landmark keeps its stale EIT and D row together).
func TestDMatchesBoundaryCount(t *testing.T) {
	dirty := 0
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(60) + 10
		g := testkg.Random(rng, n, rng.Intn(4*n)+n, rng.Intn(4)+1)
		cur := NewLocalIndex(g, IndexParams{K: rng.Intn(n/2) + 1, Seed: seed})
		checkDAgainstBoundary(t, cur)
		for batch := 0; batch < 4; batch++ {
			g2, ops := mutStep(rng, cur.Graph(), rng.Intn(10)+1)
			cur, _ = cur.ApplyMutations(g2, ops)
			checkDAgainstBoundary(t, cur)
		}
		dirty += cur.DirtyLandmarks()
	}
	if dirty == 0 {
		t.Fatal("scripts dirtied no landmark; strengthen them")
	}
}

func checkDAgainstBoundary(t *testing.T, idx *LocalIndex) {
	t.Helper()
	lms := idx.Landmarks()
	col := make(map[graph.VertexID]int, len(lms))
	for i, x := range lms {
		col[x] = i
	}
	universe := idx.Graph().LabelUniverse()
	for _, u := range lms {
		want := make([]int, len(lms))
		seen := map[graph.VertexID]bool{}
		idx.EITEntries(u, universe, func(w graph.VertexID) {
			if seen[w] {
				return
			}
			seen[w] = true
			if a := idx.Region(w); a != graph.NoVertex {
				want[col[a]]++
			}
		})
		for i, x := range lms {
			if got := idx.D(u, x); got != want[i] {
				t.Fatalf("D(%d, %d) = %d, boundary recount %d", u, x, got, want[i])
			}
			rho := 1 + rhoCode(want[i])
			if u == x {
				rho = 0
			}
			if got := idx.Rho(u, x); got != rho {
				t.Fatalf("Rho(%d, %d) = %d, want %d", u, x, got, rho)
			}
		}
	}
}
