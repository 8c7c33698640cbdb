// Package pattern implements substructure constraints (Definition 2.2 of
// the paper) and their evaluation on a knowledge graph.
//
// A substructure constraint S = (?x, V_S, E_S, E_?) is represented as a
// basic graph pattern: a list of triple patterns whose endpoints are
// either constant vertices (V_S, joined by the concrete edges E_S) or
// variables (the ?u/?v endpoints of E_?), plus a designated focus
// variable ?x. A vertex v satisfies S when substituting v for ?x leaves
// the pattern satisfiable in G (Definition 2.2's "the result is still a
// substructure or a variable-substructure of G").
//
// Two operations matter to the paper's algorithms:
//
//   - SCck(v, S): does v satisfy S? (used per-vertex by UIS, §3)
//   - V(S, G): all vertices that satisfy S (obtained "by implementing
//     SPARQL engines" for UIS* and INS, §4–§5)
package pattern

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"

	"lscr/internal/graph"
)

// TermKind discriminates triple-pattern endpoints.
type TermKind uint8

const (
	// Const is a concrete vertex of the graph.
	Const TermKind = iota
	// Var is a named variable; the focus variable ?x is a Var whose name
	// equals Constraint.Focus.
	Var
)

// Term is one endpoint of a triple pattern.
type Term struct {
	Kind   TermKind
	Vertex graph.VertexID // valid when Kind == Const
	Name   string         // valid when Kind == Var (without the '?')
}

// C returns a constant term.
func C(v graph.VertexID) Term { return Term{Kind: Const, Vertex: v} }

// V returns a variable term.
func V(name string) Term { return Term{Kind: Var, Name: name} }

// String renders the term for diagnostics.
func (t Term) String() string {
	if t.Kind == Var {
		return "?" + t.Name
	}
	return fmt.Sprintf("#%d", t.Vertex)
}

// TriplePattern is one edge pattern (subject, label, object).
type TriplePattern struct {
	Subject Term
	Label   graph.Label
	Object  Term
}

// Constraint is a substructure constraint: a basic graph pattern with a
// focus variable. Construct one directly or via the sparql package, then
// call Validate.
type Constraint struct {
	Focus    string // name of ?x
	Patterns []TriplePattern
}

// Validation errors.
var (
	ErrNoFocus      = errors.New("pattern: constraint has no focus variable")
	ErrFocusUnused  = errors.New("pattern: focus variable appears in no pattern")
	ErrEmptyPattern = errors.New("pattern: constraint has no triple patterns")
)

// Validate checks the structural requirements of Definition 2.2: a
// non-empty pattern in which the focus variable occurs (∃e ∈ E_? incident
// to ?x or pointing at ?x).
func (c *Constraint) Validate() error {
	if c.Focus == "" {
		return ErrNoFocus
	}
	if len(c.Patterns) == 0 {
		return ErrEmptyPattern
	}
	for _, p := range c.Patterns {
		if p.Subject.Kind == Var && p.Subject.Name == c.Focus {
			return nil
		}
		if p.Object.Kind == Var && p.Object.Name == c.Focus {
			return nil
		}
	}
	return ErrFocusUnused
}

// Vars returns the distinct variable names of the constraint, focus first,
// remainder sorted.
func (c *Constraint) Vars() []string {
	seen := map[string]bool{}
	var rest []string
	add := func(t Term) {
		if t.Kind == Var && !seen[t.Name] {
			seen[t.Name] = true
			if t.Name != c.Focus {
				rest = append(rest, t.Name)
			}
		}
	}
	for _, p := range c.Patterns {
		add(p.Subject)
		add(p.Object)
	}
	sort.Strings(rest)
	out := make([]string, 0, len(rest)+1)
	if seen[c.Focus] {
		out = append(out, c.Focus)
	}
	return append(out, rest...)
}

// String renders the constraint in a SPARQL-like form using numeric IDs.
func (c *Constraint) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "S(?%s){", c.Focus)
	for i, p := range c.Patterns {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%v -%d-> %v.", p.Subject, p.Label, p.Object)
	}
	b.WriteByte('}')
	return b.String()
}

// Cost returns |V_S| + |E_S| + |E_?|, the per-check term of Theorem 3.3,
// approximated as constants + patterns.
func (c *Constraint) Cost() int {
	consts := map[graph.VertexID]bool{}
	for _, p := range c.Patterns {
		if p.Subject.Kind == Const {
			consts[p.Subject.Vertex] = true
		}
		if p.Object.Kind == Const {
			consts[p.Object.Vertex] = true
		}
	}
	return len(consts) + len(c.Patterns)
}

// Matcher evaluates a constraint against a graph. It is cheap to create;
// create one per (graph, constraint) pair. A Matcher is safe for
// concurrent use because evaluation state lives on the stack of each call.
type Matcher struct {
	g *graph.Graph
	c *Constraint
}

// NewMatcher validates c and returns a Matcher for it.
func NewMatcher(g *graph.Graph, c *Constraint) (*Matcher, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return &Matcher{g: g, c: c}, nil
}

// Check implements SCck(v, S): it reports whether vertex v satisfies the
// constraint.
func (m *Matcher) Check(v graph.VertexID) bool {
	bind := map[string]graph.VertexID{m.c.Focus: v}
	return !m.enumerate(bind, newPatternSet(len(m.c.Patterns)), stopAtFirst)
}

// stopAtFirst is Check's emit: the first solution settles the answer.
func stopAtFirst() bool { return false }

// MatchAll computes V(S, G): every vertex that satisfies the constraint,
// in ascending ID order. This is the repository's stand-in for the exact
// SPARQL engine the paper configures (UNIMax = Max = +∞, Eδ = 1 ⇒ the full
// exact result set).
func (m *Matcher) MatchAll() []graph.VertexID {
	vs, _ := m.MatchCapped(math.MaxInt)
	return vs
}

// MatchCapped is MatchAll with an early exit: it stops scanning as soon
// as more than limit satisfying vertices are found and reports complete
// = false. Workload sizing loops over multi-million-vertex graphs use
// it to reject over-wide candidate constraints without enumerating the
// full V(S, G); when complete is true the returned set is exactly
// MatchAll's.
func (m *Matcher) MatchCapped(limit int) (vs []graph.VertexID, complete bool) {
	for _, v := range m.focusCandidates() {
		if m.Check(v) {
			vs = append(vs, v)
			if len(vs) > limit {
				return vs, false
			}
		}
	}
	return vs, true
}

// focusCandidates narrows the vertices worth checking, using the most
// selective pattern that touches the focus variable. Falls back to all
// vertices when no pattern pins the focus next to a constant.
func (m *Matcher) focusCandidates() []graph.VertexID {
	g, c := m.g, m.c
	best := -1
	bestLen := g.NumVertices() + 1
	bestOut := false // candidate from Out(const) vs In(const)
	for i, p := range c.Patterns {
		if p.Subject.Kind == Var && p.Subject.Name == c.Focus && p.Object.Kind == Const {
			// (?x, l, const): candidates are in-neighbors of const via l.
			if n := g.InDegree(p.Object.Vertex); n < bestLen {
				best, bestLen, bestOut = i, n, false
			}
		}
		if p.Object.Kind == Var && p.Object.Name == c.Focus && p.Subject.Kind == Const {
			// (const, l, ?x): candidates are out-neighbors of const via l.
			if n := g.OutDegree(p.Subject.Vertex); n < bestLen {
				best, bestLen, bestOut = i, n, true
			}
		}
	}
	if best < 0 {
		all := make([]graph.VertexID, g.NumVertices())
		for i := range all {
			all[i] = graph.VertexID(i)
		}
		return all
	}
	p := c.Patterns[best]
	// The CSR label runs hand over exactly the edges carrying the
	// pattern's label, already sorted by endpoint, so candidate collection
	// touches no non-matching edges and needs no re-sort — only the
	// multigraph dedup pass.
	var run []graph.Edge
	if bestOut {
		run = g.OutWith(p.Subject.Vertex, p.Label)
	} else {
		run = g.InWith(p.Object.Vertex, p.Label)
	}
	out := make([]graph.VertexID, 0, len(run))
	for _, e := range run {
		if len(out) == 0 || out[len(out)-1] != e.To {
			out = append(out, e.To)
		}
	}
	return out
}

// patternSet tracks which patterns are still unmatched (bitmask over at
// most 64 patterns; beyond that a bool slice would be needed, and the
// paper's constraints have ≤ 8 patterns).
type patternSet uint64

func newPatternSet(n int) patternSet {
	if n > 64 {
		panic("pattern: more than 64 triple patterns")
	}
	if n == 64 {
		return ^patternSet(0)
	}
	return patternSet(1)<<uint(n) - 1
}

func (s patternSet) remove(i int) patternSet { return s &^ (1 << uint(i)) }
func (s patternSet) has(i int) bool          { return s&(1<<uint(i)) != 0 }
func (s patternSet) empty() bool             { return s == 0 }

// EnumerateBindings enumerates the distinct assignments of vars over all
// solutions of the constraint's pattern, calling fn with one tuple per
// distinct assignment (slice reused between calls; copy to retain). fn
// returning false stops the enumeration. Every name in vars must be a
// variable of the constraint.
func (m *Matcher) EnumerateBindings(vars []string, fn func([]graph.VertexID) bool) error {
	have := map[string]bool{}
	for _, v := range m.c.Vars() {
		have[v] = true
	}
	for _, v := range vars {
		if !have[v] {
			return fmt.Errorf("pattern: projected variable %q not in constraint", v)
		}
	}
	seen := map[string]bool{}
	tuple := make([]graph.VertexID, len(vars))
	keyBuf := make([]byte, 0, len(vars)*5)
	bind := map[string]graph.VertexID{}
	m.enumerate(bind, newPatternSet(len(m.c.Patterns)), func() bool {
		for i, v := range vars {
			tuple[i] = bind[v]
		}
		keyBuf = keyBuf[:0]
		for _, id := range tuple {
			keyBuf = append(keyBuf, byte(id), byte(id>>8), byte(id>>16), byte(id>>24), ',')
		}
		if seen[string(keyBuf)] {
			return true
		}
		seen[string(keyBuf)] = true
		return fn(tuple)
	})
	return nil
}

// enumerate visits every solution of the remaining patterns under bind.
// It picks the cheapest remaining pattern (fully bound < one-bound by
// degree < unbound), verifies or enumerates it, and recurses; emit is
// called with bind covering every pattern's variables and returns false
// to stop. enumerate returns false when stopped.
func (m *Matcher) enumerate(bind map[string]graph.VertexID, remaining patternSet, emit func() bool) bool {
	if remaining.empty() {
		return emit()
	}
	g := m.g
	bestIdx, bestCost := -1, int(^uint(0)>>1)
	for i, p := range m.c.Patterns {
		if !remaining.has(i) {
			continue
		}
		cost := m.patternCost(p, bind)
		if cost < bestCost {
			bestIdx, bestCost = i, cost
		}
	}
	p := m.c.Patterns[bestIdx]
	rest := remaining.remove(bestIdx)

	sv, sBound := resolve(p.Subject, bind)
	ov, oBound := resolve(p.Object, bind)
	switch {
	case sBound && oBound:
		if !g.HasEdge(sv, p.Label, ov) {
			return true
		}
		return m.enumerate(bind, rest, emit)
	case sBound:
		for _, e := range g.OutWith(sv, p.Label) {
			bind[p.Object.Name] = e.To
			if !m.enumerate(bind, rest, emit) {
				delete(bind, p.Object.Name)
				return false
			}
		}
		delete(bind, p.Object.Name)
		return true
	case oBound:
		for _, e := range g.InWith(ov, p.Label) {
			bind[p.Subject.Name] = e.To
			if !m.enumerate(bind, rest, emit) {
				delete(bind, p.Subject.Name)
				return false
			}
		}
		delete(bind, p.Subject.Name)
		return true
	default:
		sameVar := p.Subject.Kind == Var && p.Object.Kind == Var && p.Subject.Name == p.Object.Name
		for s := 0; s < g.NumVertices(); s++ {
			for _, e := range g.OutWith(graph.VertexID(s), p.Label) {
				if sameVar {
					if graph.VertexID(s) != e.To {
						continue
					}
					bind[p.Subject.Name] = graph.VertexID(s)
				} else {
					bind[p.Subject.Name] = graph.VertexID(s)
					bind[p.Object.Name] = e.To
				}
				if !m.enumerate(bind, rest, emit) {
					delete(bind, p.Subject.Name)
					if !sameVar {
						delete(bind, p.Object.Name)
					}
					return false
				}
			}
		}
		delete(bind, p.Subject.Name)
		if !sameVar {
			delete(bind, p.Object.Name)
		}
		return true
	}
}

// patternCost estimates the branching factor of evaluating p under bind.
func (m *Matcher) patternCost(p TriplePattern, bind map[string]graph.VertexID) int {
	sv, sBound := resolve(p.Subject, bind)
	ov, oBound := resolve(p.Object, bind)
	switch {
	case sBound && oBound:
		return 0
	case sBound:
		return 1 + m.g.OutDegree(sv)
	case oBound:
		return 1 + m.g.InDegree(ov)
	default:
		return m.g.NumEdges() + 2
	}
}

// resolve returns the concrete vertex of t under bind, if any.
func resolve(t Term, bind map[string]graph.VertexID) (graph.VertexID, bool) {
	if t.Kind == Const {
		return t.Vertex, true
	}
	v, ok := bind[t.Name]
	return v, ok
}
