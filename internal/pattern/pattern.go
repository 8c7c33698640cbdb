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
//
// Both run on a Matcher, which compiles a constraint once into a plan
// over numbered variable slots and evaluates it by backtracking over the
// graph's label runs, binding into a slice indexed by slot. A constraint
// has at most 64 triple patterns (ErrTooManyPatterns).
package pattern

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
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
	// ErrTooManyPatterns rejects a constraint with more than 64 triple
	// patterns, the most a Matcher tracks.
	ErrTooManyPatterns = errors.New("pattern: constraint has more than 64 triple patterns")
)

// Validate checks the structural requirements of Definition 2.2: a
// non-empty pattern in which the focus variable occurs (∃e ∈ E_? incident
// to ?x or pointing at ?x) of at most 64 triple patterns.
func (c *Constraint) Validate() error {
	if c.Focus == "" {
		return ErrNoFocus
	}
	if len(c.Patterns) == 0 {
		return ErrEmptyPattern
	}
	if len(c.Patterns) > maxPatterns {
		return ErrTooManyPatterns
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

// maxPatterns caps a constraint's triple patterns: the matcher tracks
// the unmatched ones in a 64-bit patternSet. Every pattern has two
// endpoints, so a constraint has at most maxSlots variables, and one
// stack array of bindings covers every constraint.
const (
	maxPatterns = 64
	maxSlots    = 2 * maxPatterns
)

// constSlot marks a compiled endpoint that is a constant vertex.
const constSlot = -1

// endpoint is a compiled triple-pattern endpoint: the binding slot of a
// variable, or constSlot and the constant vertex v.
type endpoint struct {
	slot int32
	v    graph.VertexID
}

// get returns the endpoint's vertex under bind and whether it is bound.
// An unbound slot holds graph.NoVertex; a constant is always bound.
func (e endpoint) get(bind []graph.VertexID) (graph.VertexID, bool) {
	if e.slot == constSlot {
		return e.v, true
	}
	v := bind[e.slot]
	return v, v != graph.NoVertex
}

// step is one compiled triple pattern, at the pattern's index.
type step struct {
	s, o  endpoint
	label graph.Label
}

// Matcher evaluates a constraint against a graph. NewMatcher (or Reset)
// compiles the constraint once: each variable gets a binding slot, the
// focus slot 0, and each triple pattern becomes a step over slots and
// constants. Evaluation binds into a []graph.VertexID, so Check
// allocates nothing and MatchCapped allocates about its result.
// Compiling costs one pass over the patterns; Reset recompiles into the
// matcher's existing storage, so a pooled Matcher stops allocating once
// it has held its largest constraint. After compilation the plan is
// read-only and evaluation state lives on each call's stack, so a
// Matcher is safe for concurrent use (but not concurrently with Reset
// or Release).
type Matcher struct {
	g      *graph.Graph
	c      *Constraint
	steps  []step
	nslots int
	all    patternSet
}

// NewMatcher validates c and returns a Matcher for it.
func NewMatcher(g *graph.Graph, c *Constraint) (*Matcher, error) {
	m := new(Matcher)
	if err := m.Reset(g, c); err != nil {
		return nil, err
	}
	return m, nil
}

// Reset validates c and recompiles m for (g, c), reusing m's storage.
// On error m holds no constraint and must be Reset before use.
func (m *Matcher) Reset(g *graph.Graph, c *Constraint) error {
	m.Release()
	if err := c.Validate(); err != nil {
		return err
	}
	// names[i] is slot i's variable; the scan is linear, but a
	// constraint has at most maxSlots variables and usually a handful.
	var names [maxSlots]string
	names[0] = c.Focus
	n := 1
	compile := func(t Term) endpoint {
		if t.Kind == Const {
			return endpoint{slot: constSlot, v: t.Vertex}
		}
		for i, name := range names[:n] {
			if name == t.Name {
				return endpoint{slot: int32(i)}
			}
		}
		names[n] = t.Name
		n++
		return endpoint{slot: int32(n - 1)}
	}
	steps := m.steps[:0]
	if cap(steps) < len(c.Patterns) {
		steps = make([]step, 0, len(c.Patterns))
	}
	for _, p := range c.Patterns {
		s := compile(p.Subject)
		steps = append(steps, step{s: s, o: compile(p.Object), label: p.Label})
	}
	m.g, m.c, m.steps, m.nslots = g, c, steps, n
	m.all = newPatternSet(len(steps))
	return nil
}

// Release drops m's graph and constraint, so that a pooled Matcher pins
// neither, and keeps its compiled storage for the next Reset.
func (m *Matcher) Release() {
	m.g, m.c, m.all = nil, nil, 0
}

// unbound returns the first m.nslots entries of buf, all unbound.
func (m *Matcher) unbound(buf []graph.VertexID) []graph.VertexID {
	bind := buf[:m.nslots]
	for i := range bind {
		bind[i] = graph.NoVertex
	}
	return bind
}

// Check implements SCck(v, S): it reports whether vertex v satisfies the
// constraint.
func (m *Matcher) Check(v graph.VertexID) bool {
	var buf [maxSlots]graph.VertexID
	return m.satisfies(m.unbound(buf[:]), v, m.all)
}

// satisfies binds v to the focus and reports whether the patterns of set
// hold under bind, which it leaves as it found it apart from the focus.
func (m *Matcher) satisfies(bind []graph.VertexID, v graph.VertexID, set patternSet) bool {
	bind[0] = v
	return !m.enumerate(bind, set, stopAtFirst)
}

// stopAtFirst is SCck's emit: the first solution settles the answer.
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
//
// The candidates are the focus's neighbours in the shortest label run
// of a pattern that pins the focus next to a constant, streamed from the
// run in ascending order; that pattern holds for each of them by
// construction, so only the others are evaluated. Without such a
// pattern every vertex is a candidate.
func (m *Matcher) MatchCapped(limit int) (vs []graph.VertexID, complete bool) {
	var buf [maxSlots]graph.VertexID
	bind := m.unbound(buf[:])
	cand, run := m.focusRun()
	if cand < 0 {
		for v := range m.g.NumVertices() {
			if m.satisfies(bind, graph.VertexID(v), m.all) {
				if vs = append(vs, graph.VertexID(v)); len(vs) > limit {
					return vs, false
				}
			}
		}
		return vs, true
	}
	rest := m.all.remove(cand)
	n := len(run)
	if limit < n {
		n = limit + 1
	}
	vs = make([]graph.VertexID, 0, n)
	prev := graph.NoVertex
	for _, e := range run {
		// A multigraph repeats a neighbour within the sorted run.
		if e.To == prev {
			continue
		}
		prev = e.To
		if m.satisfies(bind, e.To, rest) {
			if vs = append(vs, e.To); len(vs) > limit {
				return vs, false
			}
		}
	}
	switch {
	case len(vs) == 0:
		return nil, true
	case len(vs) < cap(vs):
		return append([]graph.VertexID(nil), vs...), true
	}
	return vs, true
}

// focusRun picks the pattern that pins the focus next to a constant with
// the fewest edges, and returns its index and the constant's label run
// (whose far ends are the focus candidates), or -1 when no pattern does.
func (m *Matcher) focusRun() (int, []graph.Edge) {
	best, bestRun := -1, []graph.Edge(nil)
	for i, st := range m.steps {
		var run []graph.Edge
		switch {
		case st.s.slot == 0 && st.o.slot == constSlot:
			// (?x, l, const): candidates are in-neighbours of const via l.
			run = m.g.InWith(st.o.v, st.label)
		case st.o.slot == 0 && st.s.slot == constSlot:
			// (const, l, ?x): candidates are out-neighbours of const via l.
			run = m.g.OutWith(st.s.v, st.label)
		default:
			continue
		}
		if best < 0 || len(run) < len(bestRun) {
			best, bestRun = i, run
		}
	}
	return best, bestRun
}

// patternSet tracks which patterns are still unmatched (bitmask over at
// most maxPatterns patterns; Validate rejects more, and the paper's
// constraints have ≤ 8 patterns).
type patternSet uint64

func newPatternSet(n int) patternSet {
	if n == maxPatterns {
		return ^patternSet(0)
	}
	return patternSet(1)<<uint(n) - 1
}

func (s patternSet) remove(i int) patternSet { return s &^ (1 << uint(i)) }
func (s patternSet) has(i int) bool          { return s&(1<<uint(i)) != 0 }
func (s patternSet) empty() bool             { return s == 0 }

// slotOf returns the binding slot of variable name, or -1 if the
// constraint has no such variable.
func (m *Matcher) slotOf(name string) int32 {
	for i, p := range m.c.Patterns {
		if p.Subject.Kind == Var && p.Subject.Name == name {
			return m.steps[i].s.slot
		}
		if p.Object.Kind == Var && p.Object.Name == name {
			return m.steps[i].o.slot
		}
	}
	return -1
}

// EnumerateBindings enumerates the distinct assignments of vars over all
// solutions of the constraint's pattern, calling fn with one tuple per
// distinct assignment (slice reused between calls; copy to retain). fn
// returning false stops the enumeration. Every name in vars must be a
// variable of the constraint.
func (m *Matcher) EnumerateBindings(vars []string, fn func([]graph.VertexID) bool) error {
	slots := make([]int32, len(vars))
	for i, v := range vars {
		if slots[i] = m.slotOf(v); slots[i] < 0 {
			return fmt.Errorf("pattern: projected variable %q not in constraint", v)
		}
	}
	seen := map[string]bool{}
	tuple := make([]graph.VertexID, len(vars))
	keyBuf := make([]byte, 0, len(vars)*5)
	bind := m.unbound(make([]graph.VertexID, m.nslots))
	m.enumerate(bind, m.all, func() bool {
		for i, s := range slots {
			tuple[i] = bind[s]
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
// degree < unbound, ties to the lowest index), verifies or enumerates
// it, and recurses; emit is called with bind covering every pattern's
// variables and returns false to stop. enumerate returns false when
// stopped, and leaves bind as it found it either way.
func (m *Matcher) enumerate(bind []graph.VertexID, remaining patternSet, emit func() bool) bool {
	if remaining.empty() {
		return emit()
	}
	g := m.g
	bestIdx, bestCost := -1, int(^uint(0)>>1)
	for r := remaining; r != 0; r &= r - 1 {
		i := bits.TrailingZeros64(uint64(r))
		if cost := m.patternCost(m.steps[i], bind); cost < bestCost {
			bestIdx, bestCost = i, cost
		}
	}
	p := m.steps[bestIdx]
	rest := remaining.remove(bestIdx)

	sv, sBound := p.s.get(bind)
	ov, oBound := p.o.get(bind)
	switch {
	case sBound && oBound:
		if !g.HasEdge(sv, p.label, ov) {
			return true
		}
		return m.enumerate(bind, rest, emit)
	case sBound:
		ok := true
		for _, e := range g.OutWith(sv, p.label) {
			bind[p.o.slot] = e.To
			if ok = m.enumerate(bind, rest, emit); !ok {
				break
			}
		}
		bind[p.o.slot] = graph.NoVertex
		return ok
	case oBound:
		ok := true
		for _, e := range g.InWith(ov, p.label) {
			bind[p.s.slot] = e.To
			if ok = m.enumerate(bind, rest, emit); !ok {
				break
			}
		}
		bind[p.s.slot] = graph.NoVertex
		return ok
	default:
		// Both endpoints are unbound variables, possibly the same one.
		sameVar := p.s.slot == p.o.slot
		ok := true
	scan:
		for s := range g.NumVertices() {
			for _, e := range g.OutWith(graph.VertexID(s), p.label) {
				if sameVar && graph.VertexID(s) != e.To {
					continue
				}
				bind[p.s.slot], bind[p.o.slot] = graph.VertexID(s), e.To
				if ok = m.enumerate(bind, rest, emit); !ok {
					break scan
				}
			}
		}
		bind[p.s.slot], bind[p.o.slot] = graph.NoVertex, graph.NoVertex
		return ok
	}
}

// patternCost estimates the branching factor of evaluating p under bind.
func (m *Matcher) patternCost(p step, bind []graph.VertexID) int {
	sv, sBound := p.s.get(bind)
	ov, oBound := p.o.get(bind)
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
