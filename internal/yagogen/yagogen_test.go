package yagogen

import (
	"sort"
	"testing"

	"lscr/internal/graph"
	"lscr/internal/rdf"
)

func TestGenerateBasics(t *testing.T) {
	g := Generate(DefaultConfig(2000))
	if g.NumVertices() < 2000 {
		t.Fatalf("|V| = %d", g.NumVertices())
	}
	d := g.Density()
	if d < 1.5 || d > 5 {
		t.Errorf("density = %.2f, want YAGO-like ≈ 3", d)
	}
	if g.NumLabels() > 40 {
		t.Errorf("labels = %d, exceeds expectation", g.NumLabels())
	}
	typ, _ := g.LabelByName(rdf.TypePredicate)
	instances := 0
	for _, c := range rdf.Classes(g) {
		instances += len(g.InWith(c, typ))
	}
	if instances != 2000 {
		t.Errorf("class instances = %d, want 2000", instances)
	}
}

func TestDeterminism(t *testing.T) {
	a := Generate(DefaultConfig(500))
	b := Generate(DefaultConfig(500))
	if a.NumVertices() != b.NumVertices() || a.NumEdges() != b.NumEdges() {
		t.Fatal("not deterministic")
	}
}

// TestScaleFree: the in-degree distribution must be heavy-tailed — the
// top 1% of vertices should hold a disproportionate share of in-edges.
func TestScaleFree(t *testing.T) {
	g := Generate(DefaultConfig(5000))
	degs := make([]int, g.NumVertices())
	for v := 0; v < g.NumVertices(); v++ {
		degs[v] = g.InDegree(graph.VertexID(v))
	}
	sort.Sort(sort.Reverse(sort.IntSlice(degs)))
	total := 0
	for _, d := range degs {
		total += d
	}
	top := 0
	for _, d := range degs[:len(degs)/100] {
		top += d
	}
	share := float64(top) / float64(total)
	if share < 0.25 {
		t.Errorf("top-1%% in-degree share = %.2f, want heavy tail (> 0.25)", share)
	}
}

func TestDegenerateConfigs(t *testing.T) {
	for _, cfg := range []Config{
		{},
		{Entities: 1},
		{Entities: 3, EdgesPerEntity: 0, Classes: 0, Relations: 0},
	} {
		g := Generate(cfg)
		if g.NumVertices() == 0 {
			t.Errorf("config %+v yields empty graph", cfg)
		}
	}
}

func TestZipfIndexBounds(t *testing.T) {
	g := Generate(Config{Entities: 100, EdgesPerEntity: 2, Classes: 1, Relations: 1, Seed: 5})
	if g.NumVertices() == 0 {
		t.Fatal("empty")
	}
}

func TestConfigForEdges(t *testing.T) {
	for _, target := range []int{1, 30000, 120000} {
		cfg := ConfigForEdges(target)
		g := Generate(cfg)
		if g.NumEdges() < target {
			t.Errorf("ConfigForEdges(%d) generated only %d edges", target, g.NumEdges())
		}
	}
}
