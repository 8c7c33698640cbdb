package lscr

import (
	"errors"

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
// (nil otherwise). The walk is read back along the parent links of the
// recorded (vertex, satisfied-set) states, so unlike the single-
// constraint FindWitness it needs no second search.
func UISMultiWitness(g *graph.Graph, q MultiQuery) (bool, *MultiWitness, Stats, error) {
	return uis(g, q, nil, true)
}

// UISMulti answers a conjunctive LSCR query with a generalised UIS: the
// close surjection of Definition 3.1 generalises from {N, F, T} to sets
// of satisfied constraints — each vertex keeps a maximal antichain of
// satisfied-sets it has been reached with, and a state (v, m) is expanded
// only while no previously recorded m' ⊇ m exists. It runs the same
// search as UIS, so with one constraint it is UIS (T ≡ {S1} recorded,
// F ≡ ∅ recorded), Stats included.
//
// The answer is true iff Target is reachable with the full mask. Stats
// counts every vertex that entered any state as passed, and every state
// recording as a search-tree node (a vertex contributes at most 2^k
// nodes).
func UISMulti(g *graph.Graph, q MultiQuery) (bool, Stats, error) {
	ans, _, st, err := uis(g, q, nil, false)
	return ans, st, err
}
