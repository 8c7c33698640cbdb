package rdf_test

import (
	"slices"
	"strings"
	"testing"

	"lscr/internal/graph"
	"lscr/internal/lubm"
	"lscr/internal/rdf"
	"lscr/internal/yagogen"
)

func load(t *testing.T, src string) *graph.Graph {
	t.Helper()
	g, err := rdf.Load(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func classNames(g *graph.Graph) []string {
	var out []string
	for _, c := range rdf.Classes(g) {
		out = append(out, g.VertexName(c))
	}
	return out
}

// instanceEdges totals the rdf:type in-edges into class vertices, the
// multiset of (class, instance) facts landmark selection draws from.
func instanceEdges(g *graph.Graph) int {
	typ, ok := g.LabelByName(rdf.TypePredicate)
	if !ok {
		return 0
	}
	n := 0
	for _, c := range rdf.Classes(g) {
		n += len(g.InWith(c, typ))
	}
	return n
}

// TestClassesFromEdges pins the vocabulary rule of rdf.Classes: which
// vertices the rdf:type and rdfs:subClassOf edges make classes, and
// which vocabulary objects they do not.
func TestClassesFromEdges(t *testing.T) {
	cases := []struct {
		name      string
		src       string
		classes   []string
		instances int
	}{
		{
			name:    "declared only by rdf:type rdfs:Class",
			src:     "<K> <rdf:type> <rdfs:Class> .\n<a> <p> <b> .\n",
			classes: []string{"K"},
		},
		{
			name:    "subClassOf ends without instances",
			src:     "<Sub> <rdfs:subClassOf> <Super> .\n<a> <p> <b> .\n",
			classes: []string{"Sub", "Super"},
		},
		{
			name:      "repeated rdf:type triples count as a multiset",
			src:       "<a> <rdf:type> <K> .\n<a> <rdf:type> <K> .\n<b> <rdf:type> <K> .\n",
			classes:   []string{"K"},
			instances: 3,
		},
		{
			name:      "rdfs:Class is not a class with instances",
			src:       "<K> <rdf:type> <rdfs:Class> .\n<J> <rdf:type> <rdfs:Class> .\n<a> <rdf:type> <K> .\n",
			classes:   []string{"J", "K"},
			instances: 1,
		},
		{
			name:      "domain and range objects are not classes",
			src:       "<p> <rdfs:domain> <D> .\n<p> <rdfs:range> <R> .\n<a> <p> <b> .\n<a> <rdf:type> <K> .\n",
			classes:   []string{"K"},
			instances: 1,
		},
		{
			name: "no rdf:type label",
			src:  "<p> <rdfs:domain> <D> .\n<a> <p> <b> .\n",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := load(t, tc.src)
			if got := classNames(g); !slices.Equal(got, tc.classes) {
				t.Errorf("Classes = %v, want %v", got, tc.classes)
			}
			if got := instanceEdges(g); got != tc.instances {
				t.Errorf("instance edges = %d, want %d", got, tc.instances)
			}
		})
	}

	// Generator parity: the class and instance counts each generator's
	// class facts amount to.
	for _, tc := range []struct {
		name               string
		g                  *graph.Graph
		classes, instances int
	}{
		{"LUBM-1", lubm.Generate(lubm.DefaultConfig(1)), 13, 5912},
		{"yagogen-20k", yagogen.Generate(yagogen.DefaultConfig(20000)), 40, 20000},
	} {
		if got := len(rdf.Classes(tc.g)); got != tc.classes {
			t.Errorf("%s: %d classes, want %d", tc.name, got, tc.classes)
		}
		if got := instanceEdges(tc.g); got != tc.instances {
			t.Errorf("%s: %d instance edges, want %d", tc.name, got, tc.instances)
		}
	}
}
