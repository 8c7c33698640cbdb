// Package lscr implements the paper's contribution: answering reachability
// queries with label and substructure constraints (LSCR, Definition 2.4)
// on knowledge graphs, via three algorithms:
//
//   - UIS (Algorithm 1): an uninformed search with recall that works on
//     any edge-labeled graph; the paper's baseline.
//   - UIS* (Algorithm 2): obtains V(S,G) from a SPARQL engine and
//     verifies s -L-> v and v -L-> t per satisfying vertex v, sharing a
//     global stack and the close surjection across invocations.
//   - INS (Algorithm 4): an informed search guided by a precomputed
//     LocalIndex (Algorithm 3) and two priority structures (a heap H over
//     V(S,G) and a priority queue Q), which breaks the fixed LIFO/FIFO
//     search direction of the uninformed algorithms.
//
// UIS and the conjunctive UISMulti are one search (uis.go): a DFS over
// (vertex, satisfied-set) states, of which UIS is the one-constraint
// case. UIS* and INS run on one verification driver (verify.go), which
// owns the per-satisfying-vertex N/F/T cases they share; each supplies
// only where the next satisfying vertex comes from and how one LCS call
// explores. All of them realise the close surjection of Definition 3.1
// and report the paper's evaluation measures (elapsed work and
// passed-vertex counts).
package lscr

import (
	"errors"
	"fmt"

	"lscr/internal/graph"
	"lscr/internal/labelset"
	"lscr/internal/pattern"
)

// State is the value of the close surjection (Definition 3.1) for one
// vertex: N (never explored), F (s -L-> v proved), or T (s -L,S-> v
// proved).
type State uint8

// close states.
const (
	N State = iota
	F
	T
)

// String renders the state.
func (s State) String() string {
	switch s {
	case N:
		return "N"
	case F:
		return "F"
	case T:
		return "T"
	}
	return fmt.Sprintf("State(%d)", uint8(s))
}

// Query is an LSCR query Q = (s, t, L, S) (Definition 2.4).
type Query struct {
	Source, Target graph.VertexID
	Labels         labelset.Set
	Constraint     *pattern.Constraint
	// Interrupt, when non-nil, is polled roughly every interruptStride
	// edge expansions (and at phase boundaries); a non-nil return aborts
	// the search immediately with that error. The public layer derives it
	// from a context.Context so a cancelled query stops mid-flight
	// instead of running to completion. Nil costs one predictable branch
	// per expansion.
	Interrupt func() error
}

// interruptStride is how many edge expansions may pass between two
// Interrupt polls. At ~ns per expansion this bounds cancellation
// latency to microseconds, far inside the 50 ms promptness budget,
// while keeping the poll off the hot path.
const interruptStride = 2048

// interruptCheck amortises Interrupt polling over interruptStride
// ticks. The zero value (nil fn) never fires.
type interruptCheck struct {
	fn func() error
	n  int
}

// tick counts one unit of work and polls the interrupt function every
// interruptStride ticks.
func (ic *interruptCheck) tick() error {
	if ic.fn == nil {
		return nil
	}
	if ic.n++; ic.n < interruptStride {
		return nil
	}
	ic.n = 0
	return ic.fn()
}

// tickN counts n units at once — the per-run form the CSR label runs
// enable: one call per contiguous run instead of one per edge. The poll
// cadence stays amortised at interruptStride; a run only stretches the
// gap by its own length, which the degree bounds.
func (ic *interruptCheck) tickN(n int) error {
	if ic.fn == nil {
		return nil
	}
	if ic.n += n; ic.n < interruptStride {
		return nil
	}
	ic.n = 0
	return ic.fn()
}

// poll checks the interrupt immediately, bypassing the stride. Use it
// on coarse-grained steps (INS's priority-heap pops, whose
// revalidation cost dwarfs the poll) where a stride of thousands would
// stretch the cancellation latency to tens of milliseconds.
func (ic *interruptCheck) poll() error {
	if ic.fn == nil {
		return nil
	}
	return ic.fn()
}

// Stats reports the paper's evaluation measures for one query run.
type Stats struct {
	// PassedVertices is the number of vertices whose close state is not N
	// when the run ends — the second measure of §6.
	PassedVertices int
	// SearchTreeNodes is |T|, the number of nodes of the search tree of
	// Definition 3.2 (each vertex contributes a node per close state it
	// takes, so at most two).
	SearchTreeNodes int
	// SCckCalls counts substructure-check invocations, one per
	// constraint per vertex the uninformed search (UIS, UISMulti)
	// evaluates; UIS* and INS obtain V(S,G) up front and report 0.
	SCckCalls int
	// Satisfying is, for a true answer, a vertex that satisfies the
	// substructure constraint with s -L-> Satisfying -L-> t — the anchor
	// FindWitness turns into a concrete path. NoVertex for false
	// answers and for conjunctions of two or more constraints.
	Satisfying graph.VertexID
}

// Errors returned by the algorithms.
var (
	ErrBadQuery = errors.New("lscr: query vertices out of range")
)

// closeMap is the close surjection with the bookkeeping Stats needs. It
// lives in the pooled scratch and packs (epoch<<2 | state) per vertex
// (see scratch.go): entries whose epoch is stale read as N, so queries
// reuse the array with no zeroing.
type closeMap struct {
	epochArr32
	passed int // vertices with state != N
	nodes  int // search-tree nodes (state transitions)
}

// reset prepares c for a fresh query over n vertices.
func (c *closeMap) reset(n int) {
	c.next(n)
	c.passed, c.nodes = 0, 0
}

func (c *closeMap) get(v graph.VertexID) State {
	e := c.a[v]
	if e>>2 != c.epoch {
		return N
	}
	return State(e & 3)
}

// set transitions v to st, updating the passed-vertex and search-tree
// counters, and reports whether v moved. Transitions are monotone
// (Definition 3.1): N -> F -> T; demotions are ignored.
func (c *closeMap) set(v graph.VertexID, st State) bool {
	old := c.get(v)
	if st <= old {
		return false
	}
	if old == N {
		c.passed++
	}
	c.nodes++
	c.a[v] = c.epoch<<2 | uint32(st)
	return true
}

// mark is LCS's transition rule, shared by UIS*'s Line 20 and INS's
// Lines 26-27 and Cut/Push: N -> F, or N/F -> T when fromSat. It
// reports whether v moved.
func (c *closeMap) mark(v graph.VertexID, fromSat bool) bool {
	st := F
	if fromSat {
		st = T
	}
	return c.set(v, st)
}

// stats reports c's counts with the witness anchor sat (NoVertex for a
// false answer).
func (c *closeMap) stats(sat graph.VertexID) Stats {
	return Stats{PassedVertices: c.passed, SearchTreeNodes: c.nodes, Satisfying: sat}
}

// validate checks query endpoints against g.
func validate(g *graph.Graph, q Query) error {
	n := graph.VertexID(g.NumVertices())
	if q.Source >= n || q.Target >= n {
		return ErrBadQuery
	}
	return nil
}
