package lscr

import (
	"errors"
	"fmt"

	"lscr/internal/graph"
	"lscr/internal/labelset"
	"lscr/internal/pattern"
)

// MultiQuery is the conjunctive extension of Definition 2.4: a path from
// Source to Target whose labels are all in Labels and which passes, for
// every constraint S_i, some vertex satisfying S_i (possibly a different
// vertex per constraint, in any order). §2 of the paper notes that other
// substructure-constraint forms "can be derived from this definition";
// conjunction is the form the motivating applications ask for ("a
// middleman married to Amy AND an account flagged offshore").
type MultiQuery struct {
	Source, Target graph.VertexID
	Labels         labelset.Set
	Constraints    []*pattern.Constraint
	// Interrupt mirrors Query.Interrupt: polled roughly every
	// interruptStride edge expansions; a non-nil return aborts the
	// search with that error.
	Interrupt func() error
}

// MaxMultiConstraints bounds the conjunction size: the search state space
// is |V|·2^k, and the satisfied-set masks live in a uint16.
const MaxMultiConstraints = 16

// Errors of the multi-constraint search.
var (
	ErrTooManyConstraints = errors.New("lscr: too many constraints in conjunction")
	ErrNoConstraints      = errors.New("lscr: conjunction needs at least one constraint")
)

// MultiWitness certifies a true conjunctive answer: a walk from Source
// to Target and, per constraint, a vertex on the walk satisfying it.
type MultiWitness struct {
	Hops []Hop
	// SatisfiedBy[i] is the walk vertex satisfying Constraints[i].
	SatisfiedBy []graph.VertexID
}

// UISMultiWitness is UISMulti returning a witness walk for true answers
// (nil otherwise). The walk is reconstructed from predecessor links over
// the (vertex, satisfied-set) state space, so unlike the single-
// constraint FindWitness it needs no second search.
func UISMultiWitness(g *graph.Graph, q MultiQuery) (bool, *MultiWitness, Stats, error) {
	return uisMulti(g, q, true)
}

// UISMulti answers a conjunctive LSCR query with a generalised UIS: the
// close surjection of Definition 3.1 generalises from {N, F, T} to sets
// of satisfied constraints — each vertex keeps a maximal antichain of
// satisfied-sets it has been reached with, and a state (v, m) is expanded
// only while no previously recorded m' ⊇ m exists. With one constraint
// this degenerates exactly to UIS's N/F/T behaviour (T ≡ {S1} recorded,
// F ≡ ∅ recorded).
//
// The answer is true iff Target is reachable with the full mask. Stats
// counts every vertex that entered any state as passed, and every state
// recording as a search-tree node (a vertex contributes at most 2^k
// nodes).
func UISMulti(g *graph.Graph, q MultiQuery) (bool, Stats, error) {
	ans, _, st, err := uisMulti(g, q, false)
	return ans, st, err
}

func uisMulti(g *graph.Graph, q MultiQuery, wantWitness bool) (bool, *MultiWitness, Stats, error) {
	if err := validate(g, Query{Source: q.Source, Target: q.Target}); err != nil {
		return false, nil, Stats{}, err
	}
	k := len(q.Constraints)
	if k == 0 {
		return false, nil, Stats{}, ErrNoConstraints
	}
	if k > MaxMultiConstraints {
		return false, nil, Stats{}, fmt.Errorf("%w: %d > %d", ErrTooManyConstraints, k, MaxMultiConstraints)
	}
	matchers := make([]*pattern.Matcher, k)
	for i, c := range q.Constraints {
		m, err := pattern.NewMatcher(g, c)
		if err != nil {
			return false, nil, Stats{}, fmt.Errorf("constraint %d: %w", i+1, err)
		}
		matchers[i] = m
	}
	full := uint16(1)<<uint(k) - 1

	// Predecessor links over (vertex, mask) states, kept only when a
	// witness is requested.
	type stateKey struct {
		v graph.VertexID
		m uint16
	}
	type pred struct {
		v     graph.VertexID
		m     uint16
		label graph.Label
	}
	var parents map[stateKey]pred
	if wantWitness {
		parents = make(map[stateKey]pred)
	}

	n := g.NumVertices()
	// satCache memoises satBits per vertex, computed on first use. It
	// stores bits+1, so that 0 means "not computed yet".
	satCache := make([]uint32, n)
	scck := 0
	satBits := func(v graph.VertexID) uint16 {
		if c := satCache[v]; c != 0 {
			return uint16(c - 1)
		}
		var bits uint16
		for i, m := range matchers {
			scck++
			if m.Check(v) {
				bits |= 1 << uint(i)
			}
		}
		satCache[v] = uint32(bits) + 1
		return bits
	}

	// masks[v] is the maximal antichain of satisfied-sets v was reached
	// with; stats mirror the single-constraint accounting.
	masks := make([][]uint16, n)
	st := Stats{Satisfying: graph.NoVertex}
	record := func(v graph.VertexID, m uint16) bool {
		cur := masks[v]
		for _, x := range cur {
			if x&m == m { // m ⊆ x: dominated
				return false
			}
		}
		kept := cur[:0]
		for _, x := range cur {
			if m&x != x { // drop x ⊂ m
				kept = append(kept, x)
			}
		}
		if len(cur) == 0 {
			st.PassedVertices++
		}
		st.SearchTreeNodes++
		masks[v] = append(kept, m)
		return true
	}

	type state struct {
		v graph.VertexID
		m uint16
	}
	start := state{q.Source, satBits(q.Source)}
	record(q.Source, start.m)
	if q.Source == q.Target && start.m == full {
		st.SCckCalls = scck
		var w *MultiWitness
		if wantWitness {
			w = &MultiWitness{SatisfiedBy: satisfiersOnWalk(q, nil, satBits)}
		}
		return true, w, st, nil
	}
	stack := []state{start}
	ic := interruptCheck{fn: q.Interrupt}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		rs := g.OutRuns(cur.v)
		// Tick the run scan up front: cancellation must stay prompt even
		// when every run is rejected by the label constraint.
		if err := ic.tickN(rs.Len()); err != nil {
			return false, nil, Stats{}, err
		}
		for ri, n := 0, rs.Len(); ri < n; ri++ {
			if !q.Labels.Contains(rs.Label(ri)) {
				continue
			}
			run := rs.Run(ri)
			if err := ic.tickN(len(run)); err != nil {
				return false, nil, Stats{}, err
			}
			for _, e := range run {
				m := cur.m | satBits(e.To)
				if !record(e.To, m) {
					continue
				}
				if wantWitness {
					parents[stateKey{e.To, m}] = pred{v: cur.v, m: cur.m, label: e.Label}
				}
				if e.To == q.Target && m == full {
					st.SCckCalls = scck
					var w *MultiWitness
					if wantWitness {
						// Walk the predecessor chain back to the start state.
						var rev []Hop
						at := stateKey{e.To, m}
						for at.v != q.Source || at.m != start.m {
							p, ok := parents[at]
							if !ok {
								break // unreachable for a sound search
							}
							rev = append(rev, Hop{From: p.v, Label: p.label, To: at.v})
							at = stateKey{p.v, p.m}
						}
						for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
							rev[i], rev[j] = rev[j], rev[i]
						}
						w = &MultiWitness{Hops: rev, SatisfiedBy: satisfiersOnWalk(q, rev, satBits)}
					}
					return true, w, st, nil
				}
				stack = append(stack, state{e.To, m})
			}
		}
	}
	st.SCckCalls = scck
	return false, nil, st, nil
}

// satisfiersOnWalk picks, per constraint, the first walk vertex whose
// satisfied bits include it.
func satisfiersOnWalk(q MultiQuery, hops []Hop, satBits func(graph.VertexID) uint16) []graph.VertexID {
	k := len(q.Constraints)
	out := make([]graph.VertexID, k)
	for i := range out {
		out[i] = graph.NoVertex
	}
	walk := []graph.VertexID{q.Source}
	for _, h := range hops {
		walk = append(walk, h.To)
	}
	for _, v := range walk {
		bits := satBits(v)
		for i := 0; i < k; i++ {
			if out[i] == graph.NoVertex && bits&(1<<uint(i)) != 0 {
				out[i] = v
			}
		}
	}
	return out
}
