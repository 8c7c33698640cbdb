package lcr

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"lscr/internal/graph"
	"lscr/internal/labelset"
	"lscr/internal/testkg"
)

// lset builds a label constraint from label names on g.
func lset(t testing.TB, g *graph.Graph, names ...string) labelset.Set {
	t.Helper()
	var s labelset.Set
	for _, n := range names {
		l, ok := g.LabelByName(n)
		if !ok {
			t.Fatalf("label %q not in graph", n)
		}
		s = s.Add(l)
	}
	return s
}

func TestReachRunningExample(t *testing.T) {
	g, ids := testkg.RunningExample()
	cases := []struct {
		s, t   string
		labels []string
		want   bool
	}{
		{"v0", "v3", []string{"friendOf"}, true},
		{"v0", "v3", []string{"likes", "follows"}, false},
		{"v0", "v4", []string{"likes", "follows"}, true},
		{"v0", "v4", []string{"friendOf", "likes"}, true},
		{"v0", "v4", []string{"advisorOf", "follows"}, true},
		{"v0", "v4", []string{"friendOf"}, false},
		{"v3", "v4", []string{"likes"}, true},
		{"v4", "v3", []string{"hates", "friendOf"}, true},
		{"v4", "v0", []string{"hates", "friendOf", "likes", "follows", "advisorOf"}, false},
		{"v0", "v0", nil, true}, // s == t with empty constraint
	}
	for _, tc := range cases {
		L := lset(t, g, tc.labels...)
		if got := Reach(g, ids[tc.s], ids[tc.t], L); got != tc.want {
			t.Errorf("Reach(%s,%s,%v) = %v, want %v", tc.s, tc.t, tc.labels, got, tc.want)
		}
	}
}

func TestSourceCMSPaperValues(t *testing.T) {
	g, ids := testkg.RunningExample()
	cms := SourceCMS(g, ids["v0"])

	// §2: M(v0,v3) = {{friendOf}}.
	wantV3 := labelset.NewCMS(lset(t, g, "friendOf"))
	if !cms[ids["v3"]].Equal(wantV3) {
		t.Errorf("M(v0,v3) = %v, want %v", cms[ids["v3"]], wantV3)
	}
	// §2: M(v0,v4) = {{friendOf,likes},{advisorOf,follows},{likes,follows}}.
	wantV4 := labelset.NewCMS(
		lset(t, g, "friendOf", "likes"),
		lset(t, g, "advisorOf", "follows"),
		lset(t, g, "likes", "follows"),
	)
	if !cms[ids["v4"]].Equal(wantV4) {
		t.Errorf("M(v0,v4) = %v, want %v", cms[ids["v4"]], wantV4)
	}
	// M(v0,v0) = {∅}.
	if !cms[ids["v0"]].Equal(labelset.NewCMS(labelset.Set(0))) {
		t.Errorf("M(v0,v0) = %v, want [{}]", cms[ids["v0"]])
	}
}

func TestSourceCMSUnreachable(t *testing.T) {
	g, ids := testkg.RunningExample()
	cms := SourceCMS(g, ids["v4"])
	// v4 reaches v1, v3, v4 (via hates/friendOf/likes) but never v0 or v2.
	if cms[ids["v0"]] != nil || cms[ids["v2"]] != nil {
		t.Errorf("v4 should not reach v0/v2: %v %v", cms[ids["v0"]], cms[ids["v2"]])
	}
	if cms[ids["v1"]] == nil || cms[ids["v3"]] == nil {
		t.Error("v4 should reach v1 and v3")
	}
}

// naiveReach explores the product space (vertex × labelset) — a trivially
// correct but exponential oracle.
func naiveReach(g *graph.Graph, s, t graph.VertexID, L labelset.Set) bool {
	if s == t {
		return true
	}
	type st struct {
		v graph.VertexID
		l labelset.Set
	}
	seen := map[st]bool{{s, 0}: true}
	queue := []st{{s, 0}}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, e := range g.Out(cur.v) {
			if !L.Contains(e.Label) {
				continue
			}
			n := st{e.To, cur.l.Add(e.Label)}
			if e.To == t {
				return true
			}
			if !seen[n] {
				seen[n] = true
				queue = append(queue, n)
			}
		}
	}
	return false
}

func TestReachAgainstOracleProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(10) + 2
		g := testkg.Random(rng, n, rng.Intn(25), rng.Intn(4)+1)
		L := labelset.Set(rng.Uint64()) & g.LabelUniverse()
		s := graph.VertexID(rng.Intn(n))
		tt := graph.VertexID(rng.Intn(n))
		return Reach(g, s, tt, L) == naiveReach(g, s, tt, L)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: SourceCMS covering agrees with online Reach for random
// constraints, and every recorded set is realizable (sound) and minimal.
func TestSourceCMSAgreesWithReachProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(10) + 2
		g := testkg.Random(rng, n, rng.Intn(25), rng.Intn(4)+1)
		s := graph.VertexID(rng.Intn(n))
		cms := SourceCMS(g, s)
		for v := 0; v < n; v++ {
			c := cms[v]
			// Soundness: each minimal set L must witness s -L-> v.
			if c != nil {
				for _, ls := range c.Sets() {
					if !Reach(g, s, graph.VertexID(v), ls) {
						return false
					}
				}
			}
			// Completeness on random probes.
			for p := 0; p < 8; p++ {
				L := labelset.Set(rng.Uint64()) & g.LabelUniverse()
				want := Reach(g, s, graph.VertexID(v), L)
				got := graph.VertexID(v) == s || c.Covers(L)
				if got != want {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestReachableSet(t *testing.T) {
	g, ids := testkg.RunningExample()
	got := ReachableSet(g, ids["v0"], lset(t, g, "friendOf"))
	want := map[graph.VertexID]bool{ids["v0"]: true, ids["v1"]: true, ids["v3"]: true}
	if len(got) != len(want) {
		t.Fatalf("ReachableSet = %v", got)
	}
	for _, v := range got {
		if !want[v] {
			t.Fatalf("unexpected vertex %v in %v", v, got)
		}
	}
}

func TestReachableSetReverse(t *testing.T) {
	g, ids := testkg.RunningExample()
	got := ReachableSetReverse(g, ids["v4"], lset(t, g, "likes", "follows"))
	want := map[graph.VertexID]bool{
		ids["v4"]: true, ids["v3"]: true, ids["v1"]: true, ids["v2"]: true, ids["v0"]: true,
	}
	if len(got) != len(want) {
		t.Fatalf("reverse set = %v", got)
	}
	for _, v := range got {
		if !want[v] {
			t.Fatalf("unexpected %v in %v", v, got)
		}
	}
}

// naiveBFSOrder is the visit order of a plain breadth-first walk from s
// that follows the adjacency returned by adj and keeps edges whose label
// is in L.
func naiveBFSOrder(n int, adj func(graph.VertexID) []graph.Edge, s graph.VertexID, L labelset.Set) []graph.VertexID {
	seen := make([]bool, n)
	seen[s] = true
	order := []graph.VertexID{s}
	for i := 0; i < len(order); i++ {
		for _, e := range adj(order[i]) {
			if L.Contains(e.Label) && !seen[e.To] {
				seen[e.To] = true
				order = append(order, e.To)
			}
		}
	}
	return order
}

// TestReachableSetOrder pins the BFS order of ReachableSet and
// ReachableSetReverse, not just their membership: callers read the order
// as "nearest to the source first".
func TestReachableSetOrder(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(40) + 2
		g := testkg.Random(rng, n, rng.Intn(120), rng.Intn(5)+1)
		L := labelset.Set(rng.Uint64()) & g.LabelUniverse()
		v := graph.VertexID(rng.Intn(n))
		return slices.Equal(ReachableSet(g, v, L), naiveBFSOrder(n, g.Out, v, L)) &&
			slices.Equal(ReachableSetReverse(g, v, L), naiveBFSOrder(n, g.In, v, L))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: v ∈ ReachableSetReverse(t, L) iff Reach(v, t, L).
func TestReverseAgreesWithForwardProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(12) + 2
		g := testkg.Random(rng, n, rng.Intn(30), rng.Intn(4)+1)
		L := labelset.Set(rng.Uint64()) & g.LabelUniverse()
		tt := graph.VertexID(rng.Intn(n))
		in := make([]bool, n)
		for _, v := range ReachableSetReverse(g, tt, L) {
			in[v] = true
		}
		for v := 0; v < n; v++ {
			if in[v] != Reach(g, graph.VertexID(v), tt, L) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestFullTC(t *testing.T) {
	g, ids := testkg.RunningExample()
	tc := NewFullTC(g)
	if !tc.Reach(ids["v0"], ids["v4"], lset(t, g, "likes", "follows")) {
		t.Error("FullTC misses v0->v4 under {likes,follows}")
	}
	if tc.Reach(ids["v0"], ids["v3"], lset(t, g, "likes", "follows")) {
		t.Error("FullTC claims v0->v3 under {likes,follows}")
	}
	if tc.CMS(ids["v4"], ids["v0"]) != nil {
		t.Error("FullTC claims v4 reaches v0")
	}
	if tc.Entries() == 0 {
		t.Error("FullTC has no entries")
	}
}

func TestFullTCAgreesWithReachProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(8) + 2
		g := testkg.Random(rng, n, rng.Intn(20), rng.Intn(3)+1)
		tc := NewFullTC(g)
		for probe := 0; probe < 20; probe++ {
			s := graph.VertexID(rng.Intn(n))
			tt := graph.VertexID(rng.Intn(n))
			L := labelset.Set(rng.Uint64()) & g.LabelUniverse()
			if tc.Reach(s, tt, L) != Reach(g, s, tt, L) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestSpanningTreeIndex(t *testing.T) {
	g, ids := testkg.RunningExample()
	idx := NewSpanningTreeIndex(g)
	cases := []struct {
		s, t   string
		labels []string
		want   bool
	}{
		{"v0", "v3", []string{"friendOf"}, true},
		{"v0", "v3", []string{"likes", "follows"}, false},
		{"v0", "v4", []string{"likes", "follows"}, true},
		{"v3", "v4", []string{"likes"}, true},
		{"v4", "v0", []string{"hates", "friendOf", "likes", "follows", "advisorOf"}, false},
		{"v2", "v2", nil, true},
	}
	for _, tc := range cases {
		if got := idx.Reach(ids[tc.s], ids[tc.t], lset(t, g, tc.labels...)); got != tc.want {
			t.Errorf("SpanningTree.Reach(%s,%s,%v) = %v, want %v", tc.s, tc.t, tc.labels, got, tc.want)
		}
	}
	if idx.SizeBytes() <= 0 {
		t.Error("SizeBytes not positive")
	}
}

func TestSpanningTreeAgreesWithReachProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(10) + 2
		g := testkg.Random(rng, n, rng.Intn(25), rng.Intn(4)+1)
		idx := NewSpanningTreeIndex(g)
		for probe := 0; probe < 20; probe++ {
			s := graph.VertexID(rng.Intn(n))
			tt := graph.VertexID(rng.Intn(n))
			L := labelset.Set(rng.Uint64()) & g.LabelUniverse()
			if idx.Reach(s, tt, L) != Reach(g, s, tt, L) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestSpanningTreeEntriesCompressed(t *testing.T) {
	// A pure path graph with one label: the tree covers everything, so the
	// partial closure must be empty.
	b := graph.NewBuilder()
	p := b.Label("p")
	for i := 0; i < 9; i++ {
		b.AddEdge(b.Vertex(vn(i)), p, b.Vertex(vn(i+1)))
	}
	g := b.Build()
	idx := NewSpanningTreeIndex(g)
	if idx.Entries() != 0 {
		t.Errorf("path graph partial closure has %d entries, want 0", idx.Entries())
	}
	full := NewFullTC(g)
	if full.Entries() == 0 {
		t.Error("full TC should not be empty")
	}
}

func vn(i int) string { return "n" + string(rune('a'+i)) }

func TestDefaultK(t *testing.T) {
	if k := DefaultK(100); k != 100 {
		t.Errorf("DefaultK(100) = %d, want clamped 100", k)
	}
	if k := DefaultK(1000000); k != 1250+1000 {
		t.Errorf("DefaultK(1e6) = %d, want 2250", k)
	}
}

func TestLandmarkIndex(t *testing.T) {
	g, ids := testkg.RunningExample()
	idx := NewLandmarkIndex(g, LandmarkParams{K: 2, B: 2})
	if len(idx.Landmarks()) != 2 {
		t.Fatalf("landmarks = %v", idx.Landmarks())
	}
	nl := 0
	for v := 0; v < g.NumVertices(); v++ {
		if idx.IsLandmark(graph.VertexID(v)) {
			nl++
		}
	}
	if nl != 2 {
		t.Fatalf("IsLandmark count = %d", nl)
	}
	cases := []struct {
		s, t   string
		labels []string
		want   bool
	}{
		{"v0", "v4", []string{"likes", "follows"}, true},
		{"v0", "v3", []string{"likes", "follows"}, false},
		{"v0", "v3", []string{"friendOf"}, true},
		{"v3", "v4", []string{"likes"}, true},
		{"v1", "v1", nil, true},
	}
	for _, tc := range cases {
		if got := idx.Reach(ids[tc.s], ids[tc.t], lset(t, g, tc.labels...)); got != tc.want {
			t.Errorf("Landmark.Reach(%s,%s,%v) = %v, want %v", tc.s, tc.t, tc.labels, got, tc.want)
		}
	}
	if idx.Entries() == 0 || idx.SizeBytes() <= 0 {
		t.Error("index accounting empty")
	}
}

func TestLandmarkAgreesWithReachProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(12) + 2
		g := testkg.Random(rng, n, rng.Intn(30), rng.Intn(4)+1)
		idx := NewLandmarkIndex(g, LandmarkParams{K: rng.Intn(n) + 1, B: rng.Intn(4) + 1, SkipRL: true})
		for probe := 0; probe < 20; probe++ {
			s := graph.VertexID(rng.Intn(n))
			tt := graph.VertexID(rng.Intn(n))
			L := labelset.Set(rng.Uint64()) & g.LabelUniverse()
			if idx.Reach(s, tt, L) != Reach(g, s, tt, L) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestLandmarkRLFastPath exercises the R_L precomputation of [19]: small
// label constraints on landmark sources answer from the precomputed
// reachable set and must agree with online BFS.
func TestLandmarkRLFastPath(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	g := testkg.Random(rng, 20, 60, 4) // |L|=4 → R_L covers |L| ≤ 2
	idx := NewLandmarkIndex(g, LandmarkParams{K: 4, B: 2})
	for _, s := range idx.Landmarks() {
		for _, L := range []labelset.Set{0, labelset.New(0), labelset.New(1), labelset.New(0, 2)} {
			for v := 0; v < g.NumVertices(); v++ {
				want := Reach(g, s, graph.VertexID(v), L)
				if got := idx.Reach(s, graph.VertexID(v), L); got != want {
					t.Fatalf("RL path: Reach(%d,%d,%v) = %v, want %v", s, v, L, got, want)
				}
			}
		}
	}
}

func TestSmallSubsets(t *testing.T) {
	got := smallSubsets(4, 2)
	// C(4,0)+C(4,1)+C(4,2) = 1+4+6 = 11.
	if len(got) != 11 {
		t.Fatalf("len = %d, want 11", len(got))
	}
	seen := map[labelset.Set]bool{}
	for _, s := range got {
		if s.Len() > 2 {
			t.Errorf("subset %v too large", s)
		}
		if seen[s] {
			t.Errorf("duplicate subset %v", s)
		}
		seen[s] = true
	}
}
