package workload

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"testing"

	"lscr/internal/graph"
	"lscr/internal/lscr"
	"lscr/internal/lubm"
	"lscr/internal/pattern"
	"lscr/internal/sparql"
	"lscr/internal/testkg"
	"lscr/internal/yagogen"
)

func lubmFixture(t *testing.T) (*graph.Graph, *pattern.Constraint, []graph.VertexID) {
	t.Helper()
	cfg := lubm.DefaultConfig(1)
	cfg.DeptsPerUniversity = 4
	g := lubm.Generate(cfg)
	nc, _ := lubm.Constraint("S1")
	q, err := sparql.Parse(nc.SPARQL)
	if err != nil {
		t.Fatal(err)
	}
	cons, sat, err := q.Compile(g)
	if err != nil || !sat {
		t.Fatalf("compile S1: %v sat=%v", err, sat)
	}
	m, err := pattern.NewMatcher(g, cons)
	if err != nil {
		t.Fatal(err)
	}
	return g, cons, m.MatchAll()
}

func TestGenerateGroups(t *testing.T) {
	g, cons, vs := lubmFixture(t)
	trueQ, falseQ, err := Generate(g, cons, vs, Config{Count: 12, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(trueQ) == 0 || len(falseQ) == 0 {
		t.Fatalf("groups: true=%d false=%d", len(trueQ), len(falseQ))
	}
	// Every query's expectation must match a fresh UIS run.
	for _, q := range append(append([]Query{}, trueQ...), falseQ...) {
		ans, _, err := lscr.UIS(g, q.Query)
		if err != nil {
			t.Fatal(err)
		}
		if ans != q.Expected {
			t.Fatalf("ground truth mismatch: got %v want %v", ans, q.Expected)
		}
	}
}

// TestGenerateDeterministic pins the exact query groups a fixed seed
// draws on LUBM-1. The target filter's explored set and the false-type
// classification both steer the generator's RNG, so any change in what
// those walks visit moves this hash — and every paper figure's queries.
func TestGenerateDeterministic(t *testing.T) {
	g, cons, vs := lubmFixture(t)
	trueQ, falseQ, err := Generate(g, cons, vs, Config{Count: 12, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, q := range append(append([]Query{}, trueQ...), falseQ...) {
		fmt.Fprintf(h, "%t %d %d %d\n", q.Expected, q.Source, q.Target, uint64(q.Labels))
	}
	const want = "a25643fbf0cfe888557f82af0dbdd3a9061acdd47b608390932da57662db09af"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("Generate groups hash = %s, want %s (true=%d false=%d)", got, want, len(trueQ), len(falseQ))
	}
}

func TestLabelSizeBuckets(t *testing.T) {
	g, cons, vs := lubmFixture(t)
	trueQ, falseQ, err := Generate(g, cons, vs, Config{Count: 15, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	tl := g.NumLabels()
	lo, hi := int(0.2*float64(tl)), int(0.8*float64(tl))+1
	for _, q := range append(append([]Query{}, trueQ...), falseQ...) {
		size := q.Labels.Len()
		if size < lo-1 || size > hi {
			t.Errorf("label size %d outside [%d,%d]", size, lo, hi)
		}
	}
}

func TestTargetsNotTrivial(t *testing.T) {
	g, cons, vs := lubmFixture(t)
	trueQ, _, err := Generate(g, cons, vs, Config{Count: 6, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range trueQ {
		if q.Source == q.Target {
			t.Error("trivial s == t query produced")
		}
	}
}

func TestGenerateErrors(t *testing.T) {
	g, cons, vs := lubmFixture(t)
	if _, _, err := Generate(g, cons, vs, Config{Count: 0}); err == nil {
		t.Error("Count=0 accepted")
	}
	b := graph.NewBuilder()
	b.Vertex("only")
	tiny := b.Build()
	if _, _, err := Generate(tiny, cons, vs, Config{Count: 1}); err == nil {
		t.Error("one-vertex graph accepted")
	}
}

func TestGenerateOnRunningExample(t *testing.T) {
	g, ids := testkg.RunningExample()
	friendOf, _ := g.LabelByName("friendOf")
	likes, _ := g.LabelByName("likes")
	cons := &pattern.Constraint{
		Focus: "x",
		Patterns: []pattern.TriplePattern{
			{Subject: pattern.V("x"), Label: friendOf, Object: pattern.C(ids["v3"])},
			{Subject: pattern.C(ids["v3"]), Label: likes, Object: pattern.V("y")},
		},
	}
	m, _ := pattern.NewMatcher(g, cons)
	vs := m.MatchAll()
	// The tiny graph needs the tree filter off.
	trueQ, falseQ, err := Generate(g, cons, vs, Config{Count: 3, Seed: 5, SkipTreeFilter: true, MaxAttempts: 3000})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range append(append([]Query{}, trueQ...), falseQ...) {
		ans, _, err := lscr.UIS(g, q.Query)
		if err != nil || ans != q.Expected {
			t.Fatalf("mismatch on tiny graph: %v vs %v (%v)", ans, q.Expected, err)
		}
	}
}

func TestRandomConstraintSized(t *testing.T) {
	g := yagogen.Generate(yagogen.DefaultConfig(8000))
	rng := rand.New(rand.NewSource(17))
	for _, m := range []int{10, 100, 1000} {
		c, vs, err := RandomConstraintSized(rng, g, m)
		if err != nil {
			t.Fatalf("magnitude %d: %v", m, err)
		}
		if err := c.Validate(); err != nil {
			t.Fatalf("magnitude %d: invalid constraint: %v", m, err)
		}
		lo, hi := int(0.8*float64(m)), int(1.2*float64(m))
		if len(vs) < lo || len(vs) > hi {
			t.Fatalf("magnitude %d: |V(S,G)| = %d outside [%d,%d]", m, len(vs), lo, hi)
		}
		// V(S,G) must be exactly the matcher's result.
		mt, _ := pattern.NewMatcher(g, c)
		if got := mt.MatchAll(); len(got) != len(vs) {
			t.Fatalf("magnitude %d: stale V(S,G)", m)
		}
	}
}

func TestRandomConstraintSizedErrors(t *testing.T) {
	g, _ := testkg.RunningExample()
	rng := rand.New(rand.NewSource(1))
	if _, _, err := RandomConstraintSized(rng, g, 0); err == nil {
		t.Error("magnitude 0 accepted")
	}
	// A 5-vertex graph cannot produce |V(S,G)| ≈ 1000.
	if _, _, err := RandomConstraintSized(rng, g, 1000); err == nil {
		t.Error("impossible magnitude accepted")
	}
}
