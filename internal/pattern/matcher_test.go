package pattern

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"

	"lscr/internal/graph"
	"lscr/internal/lubm"
)

// fuzzGraph draws a small multigraph: parallel edges and self-loops are
// likely. Half the draws return an overlay view, a Delta that interns a
// vertex, adds edges and deletes some of the base's, committed over the
// base, so the matcher also runs over the overlay's merged rows.
func fuzzGraph(t *testing.T, rng *rand.Rand) *graph.Graph {
	b := graph.NewBuilder()
	n, nl := rng.Intn(6)+1, rng.Intn(3)+1
	for i := range n {
		b.Vertex(fmt.Sprintf("v%d", i))
	}
	for i := range nl {
		b.Label(fmt.Sprintf("l%d", i))
	}
	var edges [][3]int
	for range rng.Intn(15) {
		e := [3]int{rng.Intn(n), rng.Intn(nl), rng.Intn(n)}
		switch rng.Intn(4) {
		case 0:
			e[2] = e[0] // self-loop
		case 1:
			if len(edges) > 0 {
				e = edges[rng.Intn(len(edges))] // parallel edge
			}
		}
		edges = append(edges, e)
		b.AddEdge(graph.VertexID(e[0]), graph.Label(e[1]), graph.VertexID(e[2]))
	}
	g := b.Build()
	if rng.Intn(2) == 0 {
		return g
	}
	d := graph.NewDelta(g)
	if rng.Intn(2) == 0 {
		d.Vertex("fresh")
		n++
	}
	for range rng.Intn(6) {
		if err := d.AddEdge(graph.VertexID(rng.Intn(n)), graph.Label(rng.Intn(nl)), graph.VertexID(rng.Intn(n))); err != nil {
			t.Fatal(err)
		}
	}
	for _, i := range rng.Perm(len(edges))[:rng.Intn(len(edges)+1)/2] {
		e := edges[i]
		if err := d.DeleteEdge(graph.VertexID(e[0]), graph.Label(e[1]), graph.VertexID(e[2])); err != nil {
			t.Fatal(err)
		}
	}
	ov, err := d.Commit()
	if err != nil {
		t.Fatal(err)
	}
	return ov
}

// fuzzConstraint draws 1-4 patterns over the variables x (the focus),
// y, z and w and the graph's vertices, sharing variables across
// patterns and sometimes repeating one within a pattern (?a p ?a).
func fuzzConstraint(rng *rand.Rand, g *graph.Graph) *Constraint {
	vars := []string{"x", "y", "z", "w"}
	term := func() Term {
		if rng.Intn(3) == 0 {
			return C(graph.VertexID(rng.Intn(g.NumVertices())))
		}
		return V(vars[rng.Intn(len(vars))])
	}
	c := &Constraint{Focus: "x"}
	for range rng.Intn(4) + 1 {
		p := TriplePattern{Subject: term(), Label: graph.Label(rng.Intn(g.NumLabels())), Object: term()}
		if rng.Intn(4) == 0 {
			p.Subject = V(vars[rng.Intn(len(vars))])
			p.Object = p.Subject
		}
		c.Patterns = append(c.Patterns, p)
	}
	p := &c.Patterns[rng.Intn(len(c.Patterns))]
	if rng.Intn(2) == 0 {
		p.Subject = V("x")
	} else {
		p.Object = V("x")
	}
	return c
}

// naiveTuples is the brute-force solution set: every assignment of the
// constraint's variables to vertices under which all patterns hold,
// projected onto vars and keyed by its rendering.
func naiveTuples(g *graph.Graph, c *Constraint, vars []string) map[string]bool {
	all := c.Vars()
	bind := map[string]graph.VertexID{}
	out := map[string]bool{}
	var rec func(i int)
	rec = func(i int) {
		if i == len(all) {
			for _, p := range c.Patterns {
				s, _ := resolve(p.Subject, bind)
				o, _ := resolve(p.Object, bind)
				if !g.HasEdge(s, p.Label, o) {
					return
				}
			}
			tuple := make([]graph.VertexID, len(vars))
			for j, v := range vars {
				tuple[j] = bind[v]
			}
			out[fmt.Sprint(tuple)] = true
			return
		}
		for v := range g.NumVertices() {
			bind[all[i]] = graph.VertexID(v)
			rec(i + 1)
		}
	}
	rec(0)
	return out
}

// FuzzMatcherAgainstBruteForce checks every Matcher entry point against
// brute-force enumeration, which shares no code with the matcher: Check
// against naiveCheck for every vertex, MatchAll against the ascending
// filter, MatchCapped's prefix and complete contract at every limit,
// and EnumerateBindings against the projected solution set.
func FuzzMatcherAgainstBruteForce(f *testing.F) {
	for _, seed := range []int64{0, 1, 2, 3, 5, 8, 42, 1 << 33} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		g := fuzzGraph(t, rng)
		c := fuzzConstraint(rng, g)
		m, err := NewMatcher(g, c)
		if err != nil {
			t.Fatal(err)
		}
		var want []graph.VertexID
		for v := range g.NumVertices() {
			id := graph.VertexID(v)
			sat := naiveCheck(g, c, id)
			if m.Check(id) != sat {
				t.Fatalf("%v: Check(%d) = %v, brute force %v", c, id, !sat, sat)
			}
			if sat {
				want = append(want, id)
			}
		}
		if got := m.MatchAll(); !slices.Equal(got, want) {
			t.Fatalf("%v: MatchAll = %v, want %v", c, got, want)
		}
		for k := 0; k <= len(want)+1; k++ {
			got, complete := m.MatchCapped(k)
			if len(want) > k {
				if complete || !slices.Equal(got, want[:k+1]) {
					t.Fatalf("%v: MatchCapped(%d) = %v, %v; want %v, false", c, k, got, complete, want[:k+1])
				}
			} else if !complete || !slices.Equal(got, want) {
				t.Fatalf("%v: MatchCapped(%d) = %v, %v; want %v, true", c, k, got, complete, want)
			}
		}
		// Project a random non-empty sequence of the variables, repeats
		// allowed.
		cv := c.Vars()
		vars := make([]string, rng.Intn(len(cv))+1)
		for i := range vars {
			vars[i] = cv[rng.Intn(len(cv))]
		}
		wantRows := naiveTuples(g, c, vars)
		gotRows := map[string]bool{}
		if err := m.EnumerateBindings(vars, func(tuple []graph.VertexID) bool {
			key := fmt.Sprint(tuple)
			if gotRows[key] {
				t.Fatalf("%v: EnumerateBindings(%v) repeated %s", c, vars, key)
			}
			gotRows[key] = true
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if len(gotRows) != len(wantRows) {
			t.Fatalf("%v: EnumerateBindings(%v) = %v, want %v", c, vars, gotRows, wantRows)
		}
		for k := range wantRows {
			if !gotRows[k] {
				t.Fatalf("%v: EnumerateBindings(%v) misses %s", c, vars, k)
			}
		}
	})
}

// lubmJoin is the S3-shaped join ?x type subject. ?x pred ?y. ?y type
// object. over g's LUBM names; it also returns the candidate run's
// length, the in-edges of the subject class under rdf:type.
func lubmJoin(t testing.TB, g *graph.Graph, subject, pred, object string) (*Constraint, int) {
	t.Helper()
	typ, ok1 := g.LabelByName("rdf:type")
	p, ok2 := g.LabelByName("ub:" + pred)
	sc, oc := g.Vertex("ub:"+subject), g.Vertex("ub:"+object)
	if !ok1 || !ok2 || sc == graph.NoVertex || oc == graph.NoVertex {
		t.Fatalf("LUBM names for %s-%s-%s missing", subject, pred, object)
	}
	return &Constraint{Focus: "x", Patterns: []TriplePattern{
		{Subject: V("x"), Label: typ, Object: C(sc)},
		{Subject: V("x"), Label: p, Object: V("y")},
		{Subject: V("y"), Label: typ, Object: C(oc)},
	}}, len(g.InWith(sc, typ))
}

// TestMatcherConcurrentUse: one Matcher answers Check and MatchAll from
// several goroutines at once with the serial answers (run under -race).
func TestMatcherConcurrentUse(t *testing.T) {
	g := lubm.Generate(lubm.DefaultConfig(1))
	c, _ := lubmJoin(t, g, "GraduateStudent", "advisor", "FullProfessor")
	m, err := NewMatcher(g, c)
	if err != nil {
		t.Fatal(err)
	}
	want := m.MatchAll()
	if len(want) == 0 {
		t.Fatal("empty join")
	}
	const workers = 4
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got := m.MatchAll(); !slices.Equal(got, want) {
				errs <- fmt.Sprintf("worker %d: MatchAll differs (%d vs %d vertices)", w, len(got), len(want))
				return
			}
			for v := w; v < g.NumVertices(); v += workers {
				id := graph.VertexID(v)
				if _, sat := slices.BinarySearch(want, id); m.Check(id) != sat {
					errs <- fmt.Sprintf("worker %d: Check(%d) = %v", w, id, !sat)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// matchAllSink keeps MatchAll's result alive in the budget loop.
var matchAllSink []graph.VertexID

// TestMatcherAllocBudget is the matcher's allocation ratchet on LUBM-1's
// S3 join: a warmed Check and a Reset into fitting storage allocate
// nothing, and MatchAll allocates at most 4 bytes per candidate and per
// result, plus 1 KiB.
func TestMatcherAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on instrumented accesses")
	}
	g := lubm.Generate(lubm.DefaultConfig(1))
	c, cands := lubmJoin(t, g, "UndergraduateStudent", "takesCourse", "Course")
	m, err := NewMatcher(g, c)
	if err != nil {
		t.Fatal(err)
	}
	all := m.MatchAll()
	if len(all) == 0 {
		t.Fatal("empty join")
	}
	for _, v := range []graph.VertexID{all[0], all[len(all)-1], 0} {
		if a := testing.AllocsPerRun(100, func() { m.Check(v) }); a != 0 {
			t.Errorf("Check(%d): %.1f allocs/op, want 0", v, a)
		}
	}
	if a := testing.AllocsPerRun(100, func() {
		if err := m.Reset(g, c); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Errorf("Reset: %.1f allocs/op, want 0", a)
	}
	const runs = 20
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for range runs {
		matchAllSink = m.MatchAll()
	}
	runtime.ReadMemStats(&after)
	perOp := (after.TotalAlloc - before.TotalAlloc) / runs
	budget := uint64(4*(cands+len(all)) + 1024)
	t.Logf("MatchAll: %d B/op for %d candidates and %d results (budget %d B)", perOp, cands, len(all), budget)
	if perOp > budget {
		t.Errorf("MatchAll: %d B/op exceeds the budget of %d B (%d candidates, %d results)", perOp, budget, cands, len(all))
	}
}

// TestMatcherReset: a Matcher Reset across constraints of different
// sizes answers like a fresh one, an invalid constraint leaves it
// holding nothing, and a constraint past 64 patterns is rejected.
func TestMatcherReset(t *testing.T) {
	g, s0, ids := runningExample(t)
	likes, _ := g.LabelByName("likes")
	small := &Constraint{Focus: "x", Patterns: []TriplePattern{{Subject: V("x"), Label: likes, Object: V("x")}}}
	var m Matcher
	for _, c := range []*Constraint{s0, small, s0} {
		if err := m.Reset(g, c); err != nil {
			t.Fatal(err)
		}
		fresh, err := NewMatcher(g, c)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := m.MatchAll(), fresh.MatchAll(); !slices.Equal(got, want) {
			t.Fatalf("%v: reset matcher answers %v, fresh %v", c, got, want)
		}
	}
	if err := m.Reset(g, &Constraint{Focus: "x"}); err != ErrEmptyPattern {
		t.Fatalf("Reset(empty) = %v, want ErrEmptyPattern", err)
	}
	if m.g != nil || m.c != nil {
		t.Fatal("a failed Reset kept the old graph or constraint")
	}
	huge := &Constraint{Focus: "x"}
	for range 65 {
		huge.Patterns = append(huge.Patterns, TriplePattern{Subject: V("x"), Label: likes, Object: C(ids["v4"])})
	}
	if err := m.Reset(g, huge); err != ErrTooManyPatterns {
		t.Fatalf("Reset(65 patterns) = %v, want ErrTooManyPatterns", err)
	}
	huge.Patterns = huge.Patterns[:64]
	if err := m.Reset(g, huge); err != nil {
		t.Fatalf("Reset(64 patterns) = %v", err)
	}
	one, err := NewMatcher(g, &Constraint{Focus: "x", Patterns: huge.Patterns[:1]})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := m.MatchAll(), one.MatchAll(); !slices.Equal(got, want) {
		t.Fatalf("64 copies of one pattern answer %v, the pattern alone %v", got, want)
	}
}
