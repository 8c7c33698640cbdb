package lubm

import (
	"testing"

	"lscr/internal/rdf"
	"lscr/internal/sparql"
)

func TestGenerateBasics(t *testing.T) {
	g := Generate(DefaultConfig(1))
	if g.NumVertices() == 0 || g.NumEdges() == 0 {
		t.Fatal("empty graph")
	}
	// Density must approximate the paper's D1–D5 ratio |E|/|V| ≈ 3.5.
	d := g.Density()
	if d < 2.5 || d > 4.5 {
		t.Errorf("density = %.2f, want ≈ 3.5", d)
	}
	// Labels fit the 64-label universe with room to spare.
	if g.NumLabels() > 30 {
		t.Errorf("labels = %d", g.NumLabels())
	}
	// The rdf:type edges give the landmark selector instances of the
	// classes it needs.
	typ, ok := g.LabelByName(rdf.TypePredicate)
	if !ok {
		t.Fatal("no rdf:type label")
	}
	for _, c := range []string{ClassDepartment, ClassFullProfessor, ClassUndergraduateStudent} {
		if len(g.InWith(g.Vertex(c), typ)) == 0 {
			t.Errorf("no rdf:type instances of %s", c)
		}
	}
}

func TestGenerateScalesLinearly(t *testing.T) {
	g1 := Generate(DefaultConfig(1))
	g2 := Generate(DefaultConfig(2))
	r := float64(g2.NumVertices()) / float64(g1.NumVertices())
	if r < 1.7 || r > 2.3 {
		t.Errorf("vertex scale factor = %.2f, want ≈ 2", r)
	}
	r = float64(g2.NumEdges()) / float64(g1.NumEdges())
	if r < 1.7 || r > 2.3 {
		t.Errorf("edge scale factor = %.2f, want ≈ 2", r)
	}
}

func TestDeterminism(t *testing.T) {
	a := Generate(DefaultConfig(1))
	b := Generate(DefaultConfig(1))
	if a.NumVertices() != b.NumVertices() || a.NumEdges() != b.NumEdges() {
		t.Fatal("generator is not deterministic for equal seeds")
	}
}

// TestSelectivityRatios asserts the §6.1 characterisation of S1–S5 that
// the whole experimental design rests on.
func TestSelectivityRatios(t *testing.T) {
	g := Generate(DefaultConfig(2))
	eng := sparql.NewEngine(g)
	size := map[string]int{}
	for _, c := range Constraints() {
		vs, err := eng.Select(c.SPARQL)
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		size[c.Name] = len(vs)
	}

	if size["S1"] == 0 {
		t.Fatal("V(S1) empty")
	}
	// |V(S1)|/|V| ≈ 1‰ (the paper's baseline; we accept 0.3‰..5‰).
	frac := float64(size["S1"]) / float64(g.NumVertices())
	if frac < 0.0003 || frac > 0.005 {
		t.Errorf("|V(S1)|/|V| = %.4f%%, want ≈ 0.1%%", 100*frac)
	}
	// |V(S2)|/|V(S1)| ≈ 50%.
	r := float64(size["S2"]) / float64(size["S1"])
	if r < 0.3 || r > 0.7 {
		t.Errorf("|V(S2)|/|V(S1)| = %.2f, want ≈ 0.5", r)
	}
	// |V(S3)|/|V(S1)| ≈ 120.
	r = float64(size["S3"]) / float64(size["S1"])
	if r < 60 || r > 240 {
		t.Errorf("|V(S3)|/|V(S1)| = %.1f, want ≈ 120", r)
	}
	// |V(S4)| ≈ |V(S1)|.
	r = float64(size["S4"]) / float64(size["S1"])
	if r < 0.4 || r > 2.5 {
		t.Errorf("|V(S4)|/|V(S1)| = %.2f, want ≈ 1", r)
	}
	// |V(S5)| = 1 exactly.
	if size["S5"] != 1 {
		t.Errorf("|V(S5)| = %d, want 1", size["S5"])
	}
}

func TestConstraintLookup(t *testing.T) {
	c, ok := Constraint("S3")
	if !ok || c.Name != "S3" {
		t.Fatal("Constraint(S3) failed")
	}
	if _, ok := Constraint("S9"); ok {
		t.Fatal("Constraint(S9) should not exist")
	}
	if len(Constraints()) != 5 {
		t.Fatalf("Constraints() = %d entries", len(Constraints()))
	}
}

func TestConstraintsCompile(t *testing.T) {
	g := Generate(DefaultConfig(1))
	for _, c := range Constraints() {
		q, err := sparql.Parse(c.SPARQL)
		if err != nil {
			t.Fatalf("%s does not parse: %v", c.Name, err)
		}
		cons, sat, err := q.Compile(g)
		if err != nil {
			t.Fatalf("%s does not compile: %v", c.Name, err)
		}
		if !sat {
			t.Fatalf("%s references unknown entities", c.Name)
		}
		if cons.Focus != "x" {
			t.Fatalf("%s focus = %q", c.Name, cons.Focus)
		}
	}
}

func TestTinyConfig(t *testing.T) {
	// A deliberately degenerate configuration must still produce a valid
	// graph (courses fallback path).
	cfg := Config{
		Universities: 1, Seed: 9, DeptsPerUniversity: 1,
		FullProfessors: 1, UndergradsPerDept: 1, GradsPerDept: 1,
		ResearchInterests: 1, PublicationsPerProfessor: 1,
	}
	g := Generate(cfg)
	if g.NumVertices() == 0 {
		t.Fatal("tiny config yields empty graph")
	}
}

func TestConfigForEdges(t *testing.T) {
	for _, target := range []int{1, 30000, 120000} {
		cfg := ConfigForEdges(target)
		if cfg.Universities < 1 {
			t.Fatalf("ConfigForEdges(%d): %d universities", target, cfg.Universities)
		}
		g := Generate(cfg)
		if g.NumEdges() < target {
			t.Errorf("ConfigForEdges(%d) generated only %d edges", target, g.NumEdges())
		}
	}
}
