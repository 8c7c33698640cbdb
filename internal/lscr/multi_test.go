package lscr

import (
	"math/rand"
	"testing"
	"testing/quick"

	"lscr/internal/graph"
	"lscr/internal/labelset"
	"lscr/internal/pattern"
	"lscr/internal/testkg"
	"lscr/internal/testkg/pat"
)

// multiOracle answers a conjunctive query by exhaustive product-state BFS
// with exact (vertex, mask) visited states — no antichain pruning.
func multiOracle(g *graph.Graph, q MultiQuery) bool {
	k := len(q.Constraints)
	matchers := make([]*pattern.Matcher, k)
	for i, c := range q.Constraints {
		m, err := pattern.NewMatcher(g, c)
		if err != nil {
			panic(err)
		}
		matchers[i] = m
	}
	full := uint16(1)<<uint(k) - 1
	bits := func(v graph.VertexID) uint16 {
		var b uint16
		for i, m := range matchers {
			if m.Check(v) {
				b |= 1 << uint(i)
			}
		}
		return b
	}
	type state struct {
		v graph.VertexID
		m uint16
	}
	startM := bits(q.Source)
	if q.Source == q.Target && startM == full {
		return true
	}
	seen := map[state]bool{{q.Source, startM}: true}
	queue := []state{{q.Source, startM}}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, e := range g.Out(cur.v) {
			if !q.Labels.Contains(e.Label) {
				continue
			}
			ns := state{e.To, cur.m | bits(e.To)}
			if seen[ns] {
				continue
			}
			if ns.v == q.Target && ns.m == full {
				return true
			}
			seen[ns] = true
			queue = append(queue, ns)
		}
	}
	return false
}

// A one-constraint conjunction is UIS: same answer and same Stats, SCck
// calls and the witness anchor included.
func TestUISMultiSingleDegeneratesToUIS(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(12) + 2
		g := testkg.Random(rng, n, rng.Intn(35), rng.Intn(4)+1)
		c := pat.RandomConstraint(rng, g, 3)
		s := graph.VertexID(rng.Intn(n))
		tt := graph.VertexID(rng.Intn(n))
		L := labelset.Set(rng.Uint64()) & g.LabelUniverse()
		a, sa, err1 := UIS(g, Query{Source: s, Target: tt, Labels: L, Constraint: c})
		b, sb, err2 := UISMulti(g, MultiQuery{Source: s, Target: tt, Labels: L,
			Constraints: []*pattern.Constraint{c}})
		if err1 != nil || err2 != nil || a != b || sa != sb {
			t.Logf("seed %d: UIS %v %+v %v, UISMulti %v %+v %v", seed, a, sa, err1, b, sb, err2)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 250}); err != nil {
		t.Fatal(err)
	}
}

// randomMultiQuery draws a random graph of 2-11 vertices and a
// conjunction of 1-3 random constraints over it.
func randomMultiQuery(seed int64) (*graph.Graph, MultiQuery) {
	rng := rand.New(rand.NewSource(seed))
	n := rng.Intn(10) + 2
	g := testkg.Random(rng, n, rng.Intn(30), rng.Intn(4)+1)
	k := rng.Intn(3) + 1
	q := MultiQuery{
		Source: graph.VertexID(rng.Intn(n)),
		Target: graph.VertexID(rng.Intn(n)),
		Labels: labelset.Set(rng.Uint64()) & g.LabelUniverse(),
	}
	for i := 0; i < k; i++ {
		q.Constraints = append(q.Constraints, pat.RandomConstraint(rng, g, 2))
	}
	return g, q
}

func TestUISMultiAgainstOracleProperty(t *testing.T) {
	prop := func(seed int64) bool {
		g, q := randomMultiQuery(seed)
		got, st, err := UISMulti(g, q)
		if err != nil {
			return false
		}
		if st.SearchTreeNodes > g.NumVertices()*(1<<uint(len(q.Constraints))) {
			return false // state-space bound
		}
		return got == multiOracle(g, q)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 250}); err != nil {
		t.Fatal(err)
	}
}

// FuzzUISAgainstOracle checks the one uninformed search on random
// graphs and conjunctions of one to three constraints against the
// exhaustive product-state BFS: the answer must match, the search tree
// must stay within the |V|·2^k state space, and a true answer must come
// with a valid witness walk.
func FuzzUISAgainstOracle(f *testing.F) {
	// Seed 9360 records a mask that covers an older antichain mask.
	for _, seed := range []int64{0, 1, 2, 7, 42, 9360, 1 << 40} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		g, q := randomMultiQuery(seed)
		got, w, st, err := UISMultiWitness(g, q)
		if err != nil {
			t.Fatal(err)
		}
		if bound := g.NumVertices() * (1 << uint(len(q.Constraints))); st.SearchTreeNodes > bound {
			t.Fatalf("%d search-tree nodes exceed the state space %d", st.SearchTreeNodes, bound)
		}
		if want := multiOracle(g, q); got != want {
			t.Fatalf("answered %v, oracle %v", got, want)
		}
		if got && !validMultiWitness(g, q, w) {
			t.Fatalf("invalid witness %+v", w)
		}
	})
}

func TestUISMultiOrderIndependence(t *testing.T) {
	// The two constraints can be satisfied in either order along the
	// path: a chain x1(-S_a-) -> x2(-S_b-) -> t and the reverse.
	b := graph.NewBuilder()
	p := b.Label("p")
	mark := b.Label("mark")
	s := b.Vertex("s")
	a1 := b.Vertex("a1")
	b1 := b.Vertex("b1")
	tt := b.Vertex("t")
	ka := b.Vertex("Ka")
	kb := b.Vertex("Kb")
	b.AddEdge(s, p, a1)
	b.AddEdge(a1, p, b1)
	b.AddEdge(b1, p, tt)
	b.AddEdge(a1, mark, ka)
	b.AddEdge(b1, mark, kb)
	g := b.Build()

	consA := &pattern.Constraint{Focus: "x",
		Patterns: []pattern.TriplePattern{{Subject: pattern.V("x"), Label: mark, Object: pattern.C(ka)}}}
	consB := &pattern.Constraint{Focus: "x",
		Patterns: []pattern.TriplePattern{{Subject: pattern.V("x"), Label: mark, Object: pattern.C(kb)}}}

	q := MultiQuery{Source: s, Target: tt, Labels: labelset.New(p),
		Constraints: []*pattern.Constraint{consA, consB}}
	got, _, err := UISMulti(g, q)
	if err != nil || !got {
		t.Fatalf("A-then-B order: %v %v", got, err)
	}
	q.Constraints = []*pattern.Constraint{consB, consA}
	got, _, err = UISMulti(g, q)
	if err != nil || !got {
		t.Fatalf("B-then-A order: %v %v", got, err)
	}
	// Requiring a third, unsatisfiable constraint fails.
	consC := &pattern.Constraint{Focus: "x",
		Patterns: []pattern.TriplePattern{{Subject: pattern.V("x"), Label: mark, Object: pattern.C(s)}}}
	q.Constraints = append(q.Constraints, consC)
	got, _, err = UISMulti(g, q)
	if err != nil || got {
		t.Fatalf("unsatisfiable conjunct: %v %v", got, err)
	}
}

func TestUISMultiRevisit(t *testing.T) {
	// Satisfying both constraints requires traversing the cycle twice:
	// s -> a -> s -> b -> t where a satisfies S_a and b satisfies S_b,
	// but a is only reachable via a detour off the s->b->t spine.
	b := graph.NewBuilder()
	p := b.Label("p")
	mark := b.Label("mark")
	s := b.Vertex("s")
	a := b.Vertex("a")
	bb := b.Vertex("b")
	tt := b.Vertex("t")
	ka := b.Vertex("Ka")
	kb := b.Vertex("Kb")
	b.AddEdge(s, p, a)
	b.AddEdge(a, p, s) // detour back
	b.AddEdge(s, p, bb)
	b.AddEdge(bb, p, tt)
	b.AddEdge(a, mark, ka)
	b.AddEdge(bb, mark, kb)
	g := b.Build()
	consA := &pattern.Constraint{Focus: "x",
		Patterns: []pattern.TriplePattern{{Subject: pattern.V("x"), Label: mark, Object: pattern.C(ka)}}}
	consB := &pattern.Constraint{Focus: "x",
		Patterns: []pattern.TriplePattern{{Subject: pattern.V("x"), Label: mark, Object: pattern.C(kb)}}}
	q := MultiQuery{Source: s, Target: tt, Labels: labelset.New(p),
		Constraints: []*pattern.Constraint{consA, consB}}
	got, st, err := UISMulti(g, q)
	if err != nil || !got {
		t.Fatalf("revisit walk not found: %v %v", got, err)
	}
	if st.SearchTreeNodes <= st.PassedVertices {
		t.Error("no vertex entered a second state — recall did not happen")
	}
}

func TestUISMultiAntichain(t *testing.T) {
	// v is reached with {A}, {C}, {B} and {A} again: incomparable masks
	// pile up in v's antichain, and the last {A} is dominated by an
	// older mask, not the newest. No path satisfies all three, so the
	// search exhausts every state.
	b := graph.NewBuilder()
	p := b.Label("p")
	mark := b.Label("mark")
	s := b.Vertex("s")
	var via []graph.VertexID
	for _, name := range []string{"a", "b", "c", "a2"} {
		via = append(via, b.Vertex(name))
	}
	v := b.Vertex("v")
	tt := b.Vertex("t")
	ka, kb, kc := b.Vertex("Ka"), b.Vertex("Kb"), b.Vertex("Kc")
	for i, k := range []graph.VertexID{ka, kb, kc, ka} {
		b.AddEdge(s, p, via[i])
		b.AddEdge(via[i], p, v)
		b.AddEdge(via[i], mark, k)
	}
	b.AddEdge(v, p, tt)
	g := b.Build()
	marked := func(k graph.VertexID) *pattern.Constraint {
		return &pattern.Constraint{Focus: "x",
			Patterns: []pattern.TriplePattern{{Subject: pattern.V("x"), Label: mark, Object: pattern.C(k)}}}
	}
	q := MultiQuery{Source: s, Target: tt, Labels: labelset.New(p),
		Constraints: []*pattern.Constraint{marked(ka), marked(kb), marked(kc)}}
	got, st, err := UISMulti(g, q)
	if err != nil || got {
		t.Fatalf("got %v %v, want false", got, err)
	}
	// s and its four successors once each; v and t once per mask {A},
	// {C}, {B}. SCck runs for the three constraints on each of the seven
	// vertices' first visit.
	if want := (Stats{PassedVertices: 7, SearchTreeNodes: 11, SCckCalls: 21, Satisfying: graph.NoVertex}); st != want {
		t.Errorf("Stats = %+v, want %+v", st, want)
	}
}

// validMultiWitness checks a witness against its query.
func validMultiWitness(g *graph.Graph, q MultiQuery, w *MultiWitness) bool {
	cur := q.Source
	onWalk := map[graph.VertexID]bool{cur: true}
	for _, h := range w.Hops {
		if h.From != cur || !q.Labels.Contains(h.Label) || !g.HasEdge(h.From, h.Label, h.To) {
			return false
		}
		cur = h.To
		onWalk[cur] = true
	}
	if cur != q.Target {
		return false
	}
	if len(w.SatisfiedBy) != len(q.Constraints) {
		return false
	}
	for i, v := range w.SatisfiedBy {
		if v == graph.NoVertex || !onWalk[v] {
			return false
		}
		m, err := pattern.NewMatcher(g, q.Constraints[i])
		if err != nil || !m.Check(v) {
			return false
		}
	}
	return true
}

func TestUISMultiWitnessOrderCase(t *testing.T) {
	// Reuse the order-independence fixture: the witness must name a1 for
	// consA and b1 for consB.
	b := graph.NewBuilder()
	p := b.Label("p")
	mark := b.Label("mark")
	s := b.Vertex("s")
	a1 := b.Vertex("a1")
	b1 := b.Vertex("b1")
	tt := b.Vertex("t")
	ka := b.Vertex("Ka")
	kb := b.Vertex("Kb")
	b.AddEdge(s, p, a1)
	b.AddEdge(a1, p, b1)
	b.AddEdge(b1, p, tt)
	b.AddEdge(a1, mark, ka)
	b.AddEdge(b1, mark, kb)
	g := b.Build()
	consA := &pattern.Constraint{Focus: "x",
		Patterns: []pattern.TriplePattern{{Subject: pattern.V("x"), Label: mark, Object: pattern.C(ka)}}}
	consB := &pattern.Constraint{Focus: "x",
		Patterns: []pattern.TriplePattern{{Subject: pattern.V("x"), Label: mark, Object: pattern.C(kb)}}}
	q := MultiQuery{Source: s, Target: tt, Labels: labelset.New(p),
		Constraints: []*pattern.Constraint{consA, consB}}
	ok, w, _, err := UISMultiWitness(g, q)
	if err != nil || !ok || w == nil {
		t.Fatalf("ok=%v w=%v err=%v", ok, w, err)
	}
	if !validMultiWitness(g, q, w) {
		t.Fatalf("invalid witness %+v", w)
	}
	if w.SatisfiedBy[0] != a1 || w.SatisfiedBy[1] != b1 {
		t.Fatalf("SatisfiedBy = %v, want [a1 b1]", w.SatisfiedBy)
	}
	// False answers carry no witness.
	q.Labels = 0
	ok, w, _, err = UISMultiWitness(g, q)
	if err != nil || ok || w != nil {
		t.Fatalf("false query: ok=%v w=%v err=%v", ok, w, err)
	}
}

// Property: whenever UISMulti answers true, UISMultiWitness produces a
// valid witness, and both agree.
func TestUISMultiWitnessProperty(t *testing.T) {
	prop := func(seed int64) bool {
		g, q := randomMultiQuery(seed)
		plain, _, err1 := UISMulti(g, q)
		ok, w, _, err2 := UISMultiWitness(g, q)
		if err1 != nil || err2 != nil || plain != ok {
			return false
		}
		if !ok {
			return w == nil
		}
		return w != nil && validMultiWitness(g, q, w)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 250}); err != nil {
		t.Fatal(err)
	}
}

func TestUISMultiErrors(t *testing.T) {
	g, ids := testkg.RunningExample()
	s0 := pat.S0(g, ids)
	if _, _, err := UISMulti(g, MultiQuery{Source: 0, Target: 1}); err != ErrNoConstraints {
		t.Errorf("no constraints: %v", err)
	}
	many := make([]*pattern.Constraint, MaxMultiConstraints+1)
	for i := range many {
		many[i] = s0
	}
	if _, _, err := UISMulti(g, MultiQuery{Source: 0, Target: 1, Constraints: many}); err == nil {
		t.Error("17 constraints accepted")
	}
	if _, _, err := UISMulti(g, MultiQuery{Source: 99, Target: 0,
		Constraints: []*pattern.Constraint{s0}}); err != ErrBadQuery {
		t.Errorf("bad endpoints: %v", err)
	}
	bad := &pattern.Constraint{Focus: "x"}
	if _, _, err := UISMulti(g, MultiQuery{Source: 0, Target: 1,
		Constraints: []*pattern.Constraint{bad}}); err == nil {
		t.Error("invalid constraint accepted")
	}
}
