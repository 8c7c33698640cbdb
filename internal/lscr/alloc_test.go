package lscr

import (
	"math/rand"
	"testing"

	"lscr/internal/graph"
	"lscr/internal/pattern"
	"lscr/internal/testkg"
)

// insAllocFixture builds a query whose INS run explores a large frontier
// under a small V(S,G): the worst case for per-query heap allocation in
// the frontier queue Q, which the scratch pool is supposed to absorb.
func insAllocFixture(tb testing.TB) (*graph.Graph, *LocalIndex, Query, []graph.VertexID) {
	tb.Helper()
	rng := rand.New(rand.NewSource(7))
	g := testkg.Random(rng, 4000, 24000, 6)
	idx := NewLocalIndex(g, IndexParams{K: 40, Seed: 3})
	// A constraint anchored on one constant keeps V(S,G) (and so the H
	// heap) small while the false answer forces Q to drain the whole
	// reachable frontier.
	var c *pattern.Constraint
	var vs []graph.VertexID
	for seed := int64(0); ; seed++ {
		r := rand.New(rand.NewSource(seed))
		cand := &pattern.Constraint{
			Focus: "x",
			Patterns: []pattern.TriplePattern{{
				Subject: pattern.V("x"),
				Label:   graph.Label(r.Intn(g.NumLabels())),
				Object:  pattern.C(graph.VertexID(r.Intn(g.NumVertices()))),
			}},
		}
		m, err := pattern.NewMatcher(g, cand)
		if err != nil {
			tb.Fatal(err)
		}
		if got := m.MatchAll(); len(got) >= 1 && len(got) <= 8 {
			c, vs = cand, got
			break
		}
	}
	q := Query{
		Source: 0,
		Target: graph.VertexID(g.NumVertices() - 1),
		Labels: g.LabelUniverse(),
	}
	q.Constraint = c
	return g, idx, q, vs
}

// Steady-state allocation bounds of the warmed searches on
// insAllocFixture, with a precomputed V(S,G) for UIS* and INS.
// Everything per-query lives in the pooled scratch: the close map by
// value, UIS*'s stack, the backing arrays of INS's H and Q, the
// verification driver's two strategies, so that handing one to the
// driver as an interface moves nothing to the heap, and the uninformed
// search's entries, state arena, stack and matchers. Before the close
// map lived by value in the scratch every run allocated it, and UIS and
// UIS* regrew a fresh stack per query: 1 allocation per INS run, 14 per
// UIS run and 16 per UIS* run on this fixture. Before H shared Q's
// packed-key heap, INS made 3; before the scratch pool absorbed Q's
// heap, ~10 more.
const (
	maxINSSteadyStateAllocs      = 0
	maxUISStarSteadyStateAllocs  = 0
	maxUISSteadyStateAllocs      = 0
	maxUISMultiSteadyStateAllocs = 0
)

// checkSteadyAllocs warms the scratch pool with run and fails t if a
// warmed run allocates more than max objects.
func checkSteadyAllocs(t *testing.T, name string, max int, run func() (bool, Stats, error)) {
	t.Helper()
	if raceEnabled {
		t.Skip("sync.Pool drops pooled scratches at random under the race detector")
	}
	f := func() {
		if _, _, err := run(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		f() // warm the scratch pool (and its stack and heap capacity)
	}
	if avg := testing.AllocsPerRun(50, f); avg > float64(max) {
		t.Errorf("warmed %s query allocates %.1f objects/run, want <= %d (scratch not pooled?)", name, avg, max)
	}
}

func TestINSFrontierHeapPooled(t *testing.T) {
	g, idx, q, vs := insAllocFixture(t)
	checkSteadyAllocs(t, "INS", maxINSSteadyStateAllocs, func() (bool, Stats, error) { return INS(g, idx, q, vs) })
}

func TestUISStarStackPooled(t *testing.T) {
	g, _, q, vs := insAllocFixture(t)
	checkSteadyAllocs(t, "UIS*", maxUISStarSteadyStateAllocs, func() (bool, Stats, error) { return UISStar(g, q, vs) })
}

func TestUISStackPooled(t *testing.T) {
	g, _, q, _ := insAllocFixture(t)
	checkSteadyAllocs(t, "UIS", maxUISSteadyStateAllocs, func() (bool, Stats, error) { return UIS(g, q) })
}

func TestUISMultiPooled(t *testing.T) {
	g, _, q, _ := insAllocFixture(t)
	// A broad second constraint (an out-edge labelled 0) makes the two
	// bits enter the masks at different vertices, so antichains of
	// incomparable masks form.
	c2 := &pattern.Constraint{
		Focus:    "x",
		Patterns: []pattern.TriplePattern{{Subject: pattern.V("x"), Label: 0, Object: pattern.V("y")}},
	}
	mq := MultiQuery{Source: q.Source, Target: q.Target, Labels: q.Labels,
		Constraints: []*pattern.Constraint{q.Constraint, c2}}
	checkSteadyAllocs(t, "UISMulti", maxUISMultiSteadyStateAllocs, func() (bool, Stats, error) { return UISMulti(g, mq) })
}

// witnessAllocFixture builds a true query on a mid-size random graph
// and resolves its satisfying anchor, so FindWitness has real two-leg
// paths to reconstruct.
func witnessAllocFixture(tb testing.TB) (*graph.Graph, Query, graph.VertexID) {
	tb.Helper()
	rng := rand.New(rand.NewSource(11))
	g := testkg.Random(rng, 3000, 18000, 5)
	matchAll := &pattern.Constraint{
		Focus:    "x",
		Patterns: []pattern.TriplePattern{{Subject: pattern.V("x"), Label: 0, Object: pattern.V("y")}},
	}
	for s := 0; s < g.NumVertices(); s++ {
		for t := g.NumVertices() - 1; t > s; t-- {
			q := Query{
				Source: graph.VertexID(s), Target: graph.VertexID(t),
				Labels: g.LabelUniverse(), Constraint: matchAll,
			}
			ans, st, err := UIS(g, q)
			if err != nil {
				tb.Fatal(err)
			}
			if ans && st.Satisfying != q.Source && st.Satisfying != q.Target {
				return g, q, st.Satisfying
			}
		}
	}
	tb.Fatal("no true query with an interior anchor found")
	return nil, Query{}, 0
}

// maxWitnessSteadyStateAllocs bounds the per-call allocations of a
// warmed-up FindWitness. The only remaining allocations are the
// returned hop slices (the two legs' reversal buffers, their
// concatenation and the Witness struct) — the visited set, parent table
// and BFS queue live in a pooled lcr walker. Before the fix every call
// allocated two |V|-sized []bool plus two parent maps, so this bound
// also pins the O(1)-vs-O(|V|) regression.
const maxWitnessSteadyStateAllocs = 12

func TestWitnessReconstructionPooled(t *testing.T) {
	g, q, vStar := witnessAllocFixture(t)
	run := func() {
		w, ok := FindWitness(g, q.Source, q.Target, vStar, q.Labels)
		if !ok || w == nil {
			t.Fatal("witness vanished")
		}
	}
	for i := 0; i < 5; i++ {
		run() // warm the scratch pool
	}
	if avg := testing.AllocsPerRun(50, run); avg > maxWitnessSteadyStateAllocs {
		t.Errorf("warmed FindWitness allocates %.1f objects/run, want <= %d (visited set not pooled?)",
			avg, maxWitnessSteadyStateAllocs)
	}
}

// maxNaiveSteadyStateAllocs bounds a warmed-up Naive run on the INS
// fixture (false answer, whole frontier drained, inner procedure run
// per satisfying vertex). The per-call matcher construction accounts
// for the fixed handful; the outer walk's visited set and stack and the
// inner procedure's walker are pooled, so the bound no longer scales
// with |V|.
const maxNaiveSteadyStateAllocs = 24

func TestNaiveVisitedPooled(t *testing.T) {
	g, _, q, _ := insAllocFixture(t)
	run := func() {
		if _, _, err := Naive(g, q); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		run()
	}
	if avg := testing.AllocsPerRun(20, run); avg > maxNaiveSteadyStateAllocs {
		t.Errorf("warmed Naive query allocates %.1f objects/run, want <= %d (visited sets not pooled?)",
			avg, maxNaiveSteadyStateAllocs)
	}
}

// BenchmarkWitnessAllocs tracks the trajectory in benchmark output
// (go test -bench WitnessAllocs -benchmem).
func BenchmarkWitnessAllocs(b *testing.B) {
	g, q, vStar := witnessAllocFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := FindWitness(g, q.Source, q.Target, vStar, q.Labels); !ok {
			b.Fatal("witness vanished")
		}
	}
}

// BenchmarkINSAllocs reports allocs/op for the same fixture so the
// trajectory is visible in benchmark output (go test -bench INSAllocs
// -benchmem).
func BenchmarkINSAllocs(b *testing.B) {
	g, idx, q, vs := insAllocFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := INS(g, idx, q, vs); err != nil {
			b.Fatal(err)
		}
	}
}
