package graph

import (
	"math/rand"
	"testing"
	"testing/quick"

	"lscr/internal/labelset"
)

func buildRunning(t *testing.T) (*Graph, map[string]VertexID) {
	t.Helper()
	b := NewBuilder()
	// The running example G0 of Figure 3(a): v0..v4 with labels
	// friendOf, likes, follows, advisorOf, hates.
	edges := [][3]string{
		{"v0", "friendOf", "v3"},
		{"v0", "friendOf", "v1"},
		{"v1", "friendOf", "v3"},
		{"v2", "friendOf", "v3"},
		{"v0", "advisorOf", "v2"},
		{"v2", "follows", "v4"},
		{"v1", "likes", "v4"},
		{"v3", "likes", "v4"},
		{"v4", "hates", "v1"},
	}
	for _, e := range edges {
		b.AddEdgeNames(e[0], e[1], e[2])
	}
	g := b.Build()
	ids := map[string]VertexID{}
	for _, n := range []string{"v0", "v1", "v2", "v3", "v4"} {
		ids[n] = g.Vertex(n)
	}
	return g, ids
}

func TestBuildAndLookups(t *testing.T) {
	g, ids := buildRunning(t)
	if g.NumVertices() != 5 || g.NumEdges() != 9 || g.NumLabels() != 5 {
		t.Fatalf("%v", g)
	}
	if g.Vertex("nope") != NoVertex {
		t.Error("missing vertex lookup should return NoVertex")
	}
	if _, ok := g.LabelByName("nope"); ok {
		t.Error("missing label lookup should fail")
	}
	l, ok := g.LabelByName("friendOf")
	if !ok {
		t.Fatal("friendOf missing")
	}
	if g.LabelName(l) != "friendOf" {
		t.Error("label dictionary round trip failed")
	}
	if g.VertexName(ids["v3"]) != "v3" {
		t.Error("vertex dictionary round trip failed")
	}
	if !g.HasEdge(ids["v0"], l, ids["v3"]) {
		t.Error("HasEdge(v0,friendOf,v3) = false")
	}
	if g.HasEdge(ids["v3"], l, ids["v0"]) {
		t.Error("reverse edge should not exist")
	}
}

func TestDegreesAndAdjacency(t *testing.T) {
	g, ids := buildRunning(t)
	if d := g.OutDegree(ids["v0"]); d != 3 {
		t.Errorf("OutDegree(v0) = %d, want 3", d)
	}
	if d := g.InDegree(ids["v4"]); d != 3 {
		t.Errorf("InDegree(v4) = %d, want 3", d)
	}
	if d := g.Degree(ids["v4"]); d != 4 {
		t.Errorf("Degree(v4) = %d, want 4", d)
	}
	// In-edges of v3 must name v0, v1, v2 as sources.
	srcs := map[VertexID]bool{}
	for _, e := range g.In(ids["v3"]) {
		srcs[e.To] = true
	}
	for _, n := range []string{"v0", "v1", "v2"} {
		if !srcs[ids[n]] {
			t.Errorf("in-edge from %s missing", n)
		}
	}
}

func TestTriplesIteration(t *testing.T) {
	g, _ := buildRunning(t)
	n := 0
	g.Triples(func(tr Triple) bool { n++; return true })
	if n != g.NumEdges() {
		t.Fatalf("iterated %d, want %d", n, g.NumEdges())
	}
	n = 0
	g.Triples(func(tr Triple) bool { n++; return n < 3 })
	if n != 3 {
		t.Fatalf("early stop iterated %d, want 3", n)
	}
}

func TestParallelEdgesAndSelfLoops(t *testing.T) {
	b := NewBuilder()
	a := b.Vertex("a")
	l1, l2 := b.Label("p"), b.Label("q")
	b.AddEdge(a, l1, a)
	b.AddEdge(a, l1, a)
	b.AddEdge(a, l2, a)
	g := b.Build()
	if g.NumEdges() != 3 || g.OutDegree(a) != 3 || g.InDegree(a) != 3 {
		t.Fatalf("multigraph handling broken: %v", g)
	}
}

func TestEmptyGraph(t *testing.T) {
	g := NewBuilder().Build()
	if g.NumVertices() != 0 || g.NumEdges() != 0 || g.Density() != 0 {
		t.Fatal("empty graph not empty")
	}
	if g.LabelUniverse() != labelset.Set(0) {
		t.Fatal("empty universe not empty")
	}
}

func TestLabelUniverseAndDensity(t *testing.T) {
	g, _ := buildRunning(t)
	if g.LabelUniverse().Len() != 5 {
		t.Errorf("universe = %v", g.LabelUniverse())
	}
	if got, want := g.Density(), 9.0/5.0; got != want {
		t.Errorf("density = %f, want %f", got, want)
	}
}

func TestLabelOverflowPanics(t *testing.T) {
	b := NewBuilder()
	for i := 0; i < labelset.MaxLabels; i++ {
		b.Label(string(rune('a'+i%26)) + string(rune('0'+i/26)))
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic on 65th label")
		}
	}()
	b.Label("overflow")
}

func TestVertexInterning(t *testing.T) {
	b := NewBuilder()
	v1 := b.Vertex("x")
	v2 := b.Vertex("x")
	if v1 != v2 {
		t.Fatal("interning returned different ids")
	}
	if b.NumVertices() != 1 {
		t.Fatal("duplicate vertex created")
	}
}

// Property: a random edge list builds into a graph whose out- and in-
// adjacency agree edge-for-edge, and whose edge count matches.
func TestBuildAdjacencyConsistencyProperty(t *testing.T) {
	prop := func(seed int64, nRaw, mRaw uint8) bool {
		n := int(nRaw%40) + 1
		m := int(mRaw)
		rng := rand.New(rand.NewSource(seed))
		b := NewBuilder()
		for i := 0; i < n; i++ {
			b.Vertex(vname(i))
		}
		type key struct {
			s, t VertexID
			l    Label
		}
		want := map[key]int{}
		for i := 0; i < m; i++ {
			s := VertexID(rng.Intn(n))
			tv := VertexID(rng.Intn(n))
			l := Label(rng.Intn(8))
			// Interning labels lazily: ensure label exists.
			for int(l) >= 0 && int(l) > len("")-1 {
				break
			}
			b.Label(string(rune('a' + l)))
			b.AddEdge(s, l, tv)
			want[key{s, tv, l}]++
		}
		g := b.Build()
		if g.NumEdges() != m {
			return false
		}
		gotOut := map[key]int{}
		for v := 0; v < n; v++ {
			for _, e := range g.Out(VertexID(v)) {
				gotOut[key{VertexID(v), e.To, e.Label}]++
			}
		}
		gotIn := map[key]int{}
		for v := 0; v < n; v++ {
			for _, e := range g.In(VertexID(v)) {
				gotIn[key{e.To, VertexID(v), e.Label}]++
			}
		}
		if len(gotOut) != len(want) || len(gotIn) != len(want) {
			return false
		}
		for k, c := range want {
			if gotOut[k] != c || gotIn[k] != c {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func vname(i int) string {
	return "v" + string(rune('A'+i%26)) + string(rune('0'+i/26))
}
