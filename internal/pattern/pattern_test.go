package pattern

import (
	"math/rand"
	"testing"
	"testing/quick"

	"lscr/internal/graph"
	"lscr/internal/testkg"
)

// runningExample builds G0 of Figure 3(a) (see testkg.RunningExample for
// the reconstruction notes) and the substructure constraint S0 of Figure
// 3(b): S0 = (?x, {v3}, {}, {(?x,friendOf,v3),(v3,likes,?y)}).
func runningExample(t testing.TB) (*graph.Graph, *Constraint, map[string]graph.VertexID) {
	g, ids := testkg.RunningExample()
	friendOf, _ := g.LabelByName("friendOf")
	likes, _ := g.LabelByName("likes")
	s0 := &Constraint{
		Focus: "x",
		Patterns: []TriplePattern{
			{Subject: V("x"), Label: friendOf, Object: C(ids["v3"])},
			{Subject: C(ids["v3"]), Label: likes, Object: V("y")},
		},
	}
	return g, s0, ids
}

func TestRunningExampleSCck(t *testing.T) {
	g, s0, ids := runningExample(t)
	m, err := NewMatcher(g, s0)
	if err != nil {
		t.Fatal(err)
	}
	// §3 of the paper: "only v1 and v2 could satisfy S0".
	want := map[string]bool{"v0": false, "v1": true, "v2": true, "v3": false, "v4": false}
	for name, sat := range want {
		if got := m.Check(ids[name]); got != sat {
			t.Errorf("SCck(%s) = %v, want %v", name, got, sat)
		}
	}
}

func TestRunningExampleMatchAll(t *testing.T) {
	g, s0, ids := runningExample(t)
	m, err := NewMatcher(g, s0)
	if err != nil {
		t.Fatal(err)
	}
	got := m.MatchAll()
	want := []graph.VertexID{ids["v1"], ids["v2"]}
	if len(got) != len(want) {
		t.Fatalf("V(S0,G0) = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("V(S0,G0) = %v, want %v", got, want)
		}
	}
}

func TestValidate(t *testing.T) {
	g, s0, _ := runningExample(t)
	if err := s0.Validate(); err != nil {
		t.Fatalf("valid constraint rejected: %v", err)
	}
	bad := &Constraint{Focus: "", Patterns: s0.Patterns}
	if err := bad.Validate(); err != ErrNoFocus {
		t.Errorf("want ErrNoFocus, got %v", err)
	}
	bad = &Constraint{Focus: "x"}
	if err := bad.Validate(); err != ErrEmptyPattern {
		t.Errorf("want ErrEmptyPattern, got %v", err)
	}
	bad = &Constraint{Focus: "z", Patterns: s0.Patterns[1:]} // only (v3,likes,?y)
	if err := bad.Validate(); err != ErrFocusUnused {
		t.Errorf("want ErrFocusUnused, got %v", err)
	}
	if _, err := NewMatcher(g, bad); err == nil {
		t.Error("NewMatcher accepted invalid constraint")
	}
}

func TestVars(t *testing.T) {
	_, s0, _ := runningExample(t)
	vars := s0.Vars()
	if len(vars) != 2 || vars[0] != "x" || vars[1] != "y" {
		t.Errorf("Vars = %v", vars)
	}
}

func TestCost(t *testing.T) {
	_, s0, _ := runningExample(t)
	// One distinct constant (v3) + two patterns.
	if got := s0.Cost(); got != 3 {
		t.Errorf("Cost = %d, want 3", got)
	}
}

func TestMultiHopConstraint(t *testing.T) {
	// ?x -p-> ?y -p-> ?z -q-> end : chain with no constant adjacent to ?x.
	b := graph.NewBuilder()
	p, q := b.Label("p"), b.Label("q")
	a, bb, c, d := b.Vertex("a"), b.Vertex("b"), b.Vertex("c"), b.Vertex("d")
	e := b.Vertex("end")
	b.AddEdge(a, p, bb)
	b.AddEdge(bb, p, c)
	b.AddEdge(c, q, e)
	b.AddEdge(d, p, a) // d -p-> a -p-> b, but b has no q edge
	g := b.Build()
	cons := &Constraint{
		Focus: "x",
		Patterns: []TriplePattern{
			{Subject: V("x"), Label: p, Object: V("y")},
			{Subject: V("y"), Label: p, Object: V("z")},
			{Subject: V("z"), Label: q, Object: C(e)},
		},
	}
	m, err := NewMatcher(g, cons)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Check(a) {
		t.Error("a should satisfy (a-p->b-p->c-q->end)")
	}
	for _, v := range []graph.VertexID{bb, c, d, e} {
		if m.Check(v) {
			t.Errorf("%s should not satisfy", g.VertexName(v))
		}
	}
	all := m.MatchAll()
	if len(all) != 1 || all[0] != a {
		t.Errorf("MatchAll = %v", all)
	}
}

func TestFullyUnboundPattern(t *testing.T) {
	// A pattern whose evaluation must fall into the edge-scan branch:
	// focus constrained only transitively via an unbound pair.
	b := graph.NewBuilder()
	p, q := b.Label("p"), b.Label("q")
	x1, y1 := b.Vertex("x1"), b.Vertex("y1")
	x2 := b.Vertex("x2")
	b.AddEdge(x1, p, y1)
	b.AddEdge(y1, q, y1) // self loop under q
	b.AddEdge(x2, p, x2)
	g := b.Build()
	cons := &Constraint{
		Focus: "x",
		Patterns: []TriplePattern{
			{Subject: V("x"), Label: p, Object: V("y")},
			{Subject: V("y"), Label: q, Object: V("y")}, // same-var pattern
		},
	}
	m, err := NewMatcher(g, cons)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Check(x1) {
		t.Error("x1 should satisfy")
	}
	if m.Check(x2) {
		t.Error("x2 should not satisfy (x2's p-target has no q self-loop)")
	}
}

func TestSelfLoopFocus(t *testing.T) {
	b := graph.NewBuilder()
	p := b.Label("p")
	a := b.Vertex("a")
	c := b.Vertex("c")
	b.AddEdge(a, p, a)
	b.AddEdge(c, p, a)
	g := b.Build()
	cons := &Constraint{
		Focus:    "x",
		Patterns: []TriplePattern{{Subject: V("x"), Label: p, Object: V("x")}},
	}
	m, err := NewMatcher(g, cons)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Check(a) || m.Check(c) {
		t.Error("self-loop focus matching broken")
	}
	all := m.MatchAll()
	if len(all) != 1 || all[0] != a {
		t.Errorf("MatchAll = %v", all)
	}
}

func TestUnsatisfiableConstraint(t *testing.T) {
	g, _, ids := runningExample(t)
	likes, _ := g.LabelByName("likes")
	cons := &Constraint{
		Focus: "x",
		Patterns: []TriplePattern{
			{Subject: V("x"), Label: likes, Object: C(ids["v0"])}, // nothing likes v0
		},
	}
	m, err := NewMatcher(g, cons)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.MatchAll(); len(got) != 0 {
		t.Errorf("MatchAll = %v, want empty", got)
	}
}

func TestConstraintString(t *testing.T) {
	_, s0, _ := runningExample(t)
	s := s0.String()
	if s == "" || s[0] != 'S' {
		t.Errorf("String = %q", s)
	}
}

func TestEnumerateBindings(t *testing.T) {
	g, s0, ids := runningExample(t)
	m, err := NewMatcher(g, s0)
	if err != nil {
		t.Fatal(err)
	}
	var rows [][]graph.VertexID
	err = m.EnumerateBindings([]string{"x", "y"}, func(tuple []graph.VertexID) bool {
		rows = append(rows, append([]graph.VertexID(nil), tuple...))
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	// S0 solutions: x ∈ {v1,v2}, y = v4 (v3's only likes-target).
	if len(rows) != 2 {
		t.Fatalf("rows = %v", rows)
	}
	for _, r := range rows {
		if r[1] != ids["v4"] {
			t.Errorf("y = %v, want v4", r[1])
		}
		if r[0] != ids["v1"] && r[0] != ids["v2"] {
			t.Errorf("x = %v", r[0])
		}
	}
	// Early stop.
	n := 0
	if err := m.EnumerateBindings([]string{"x"}, func([]graph.VertexID) bool {
		n++
		return false
	}); err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("early stop visited %d", n)
	}
	// Unknown projected variable.
	if err := m.EnumerateBindings([]string{"zzz"}, nil); err == nil {
		t.Fatal("unknown variable accepted")
	}
}

// Property: EnumerateBindings on the focus variable yields exactly the
// MatchAll set.
func TestEnumerateAgreesWithMatchAllProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := testkg.Random(rng, rng.Intn(8)+2, rng.Intn(20), rng.Intn(3)+1)
		c := randomConstraintLocal(rng, g)
		m, err := NewMatcher(g, c)
		if err != nil {
			return false
		}
		want := map[graph.VertexID]bool{}
		for _, v := range m.MatchAll() {
			want[v] = true
		}
		got := map[graph.VertexID]bool{}
		if err := m.EnumerateBindings([]string{c.Focus}, func(tuple []graph.VertexID) bool {
			got[tuple[0]] = true
			return true
		}); err != nil {
			return false
		}
		if len(got) != len(want) {
			return false
		}
		for v := range want {
			if !got[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// randomConstraintLocal mirrors testkg/pat.RandomConstraint without the
// import (which would cycle through this package's tests).
func randomConstraintLocal(rng *rand.Rand, g *graph.Graph) *Constraint {
	n, nl := g.NumVertices(), g.NumLabels()
	vars := []string{"y", "z"}
	term := func() Term {
		switch rng.Intn(3) {
		case 0:
			return C(graph.VertexID(rng.Intn(n)))
		case 1:
			return V("x")
		default:
			return V(vars[rng.Intn(len(vars))])
		}
	}
	np := rng.Intn(3) + 1
	c := &Constraint{Focus: "x"}
	for i := 0; i < np; i++ {
		c.Patterns = append(c.Patterns, TriplePattern{
			Subject: term(), Label: graph.Label(rng.Intn(nl)), Object: term(),
		})
	}
	c.Patterns[0].Subject = V("x")
	return c
}

// naiveCheck enumerates all variable assignments by brute force.
func naiveCheck(g *graph.Graph, c *Constraint, focus graph.VertexID) bool {
	vars := c.Vars()
	n := g.NumVertices()
	bind := map[string]graph.VertexID{c.Focus: focus}
	rest := vars[1:]
	var rec func(i int) bool
	holds := func() bool {
		for _, p := range c.Patterns {
			s, _ := resolve(p.Subject, bind)
			o, _ := resolve(p.Object, bind)
			if !g.HasEdge(s, p.Label, o) {
				return false
			}
		}
		return true
	}
	rec = func(i int) bool {
		if i == len(rest) {
			return holds()
		}
		for v := 0; v < n; v++ {
			bind[rest[i]] = graph.VertexID(v)
			if rec(i + 1) {
				return true
			}
		}
		delete(bind, rest[i])
		return false
	}
	return rec(0)
}

// Property: the backtracking matcher agrees with brute-force enumeration
// on random small graphs and random 1–3 pattern constraints.
func TestMatcherAgreesWithBruteForce(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b := graph.NewBuilder()
		n := rng.Intn(6) + 2
		for i := 0; i < n; i++ {
			b.Vertex(string(rune('a' + i)))
		}
		nl := rng.Intn(3) + 1
		for i := 0; i < nl; i++ {
			b.Label(string(rune('p' + i)))
		}
		m := rng.Intn(12)
		for i := 0; i < m; i++ {
			b.AddEdge(graph.VertexID(rng.Intn(n)), graph.Label(rng.Intn(nl)), graph.VertexID(rng.Intn(n)))
		}
		g := b.Build()

		varNames := []string{"x", "y", "z"}
		term := func() Term {
			if rng.Intn(2) == 0 {
				return C(graph.VertexID(rng.Intn(n)))
			}
			return V(varNames[rng.Intn(len(varNames))])
		}
		np := rng.Intn(3) + 1
		c := &Constraint{Focus: "x"}
		for i := 0; i < np; i++ {
			c.Patterns = append(c.Patterns, TriplePattern{
				Subject: term(), Label: graph.Label(rng.Intn(nl)), Object: term(),
			})
		}
		// Force the focus to appear.
		c.Patterns[0].Subject = V("x")
		mt, err := NewMatcher(g, c)
		if err != nil {
			return false
		}
		for v := 0; v < n; v++ {
			if mt.Check(graph.VertexID(v)) != naiveCheck(g, c, graph.VertexID(v)) {
				return false
			}
		}
		// MatchAll must equal the set of Check-true vertices.
		got := mt.MatchAll()
		idx := 0
		for v := 0; v < n; v++ {
			sat := mt.Check(graph.VertexID(v))
			inAll := idx < len(got) && got[idx] == graph.VertexID(v)
			if inAll {
				idx++
			}
			if sat != inAll {
				return false
			}
		}
		return idx == len(got)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 250}); err != nil {
		t.Fatal(err)
	}
}

// resolve returns the concrete vertex of t under a name-keyed binding,
// if any. It is the test oracles' own evaluator: the matcher binds by
// slot and shares none of this.
func resolve(t Term, bind map[string]graph.VertexID) (graph.VertexID, bool) {
	if t.Kind == Const {
		return t.Vertex, true
	}
	v, ok := bind[t.Name]
	return v, ok
}
