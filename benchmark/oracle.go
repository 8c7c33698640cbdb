package main

import (
	"fmt"

	"lscr/internal/graph"
	"lscr/internal/labelset"
	"lscr/internal/sparql"
)

// arc is one out-edge in the oracle's own adjacency list.
type arc struct {
	to    graph.VertexID
	label labelset.Label
}

// oracle is the reference implementation every measured answer is
// compared with: Definition 2.3 as one breadth-first search over
// (vertex, satisfied-constraint mask) states on a plain adjacency list.
// It shares no traversal code with the engine — only V(S,G) comes from
// the system's SPARQL evaluator, once per constraint text.
type oracle struct {
	g    *graph.Graph
	adj  [][]arc
	sets map[string][]bool // constraint text → membership in V(S,G)

	// Scratch reused across reach calls; the oracle is single-threaded.
	seen  []uint8 // bit m set: vertex reached with constraint mask m
	depth []int32 // label-constrained hop distance from the source, -1 unreached
	queue []uint32
}

func newOracle(g *graph.Graph) *oracle {
	n := g.NumVertices()
	o := &oracle{
		g:     g,
		adj:   make([][]arc, n),
		sets:  map[string][]bool{},
		seen:  make([]uint8, n),
		depth: make([]int32, n),
	}
	for v := range o.adj {
		out := g.Out(graph.VertexID(v))
		o.adj[v] = make([]arc, len(out))
		for i, e := range out {
			o.adj[v][i] = arc{to: e.To, label: e.Label}
		}
	}
	return o
}

// satisfying returns V(S,G) for text as a membership slice, evaluated
// once per distinct text.
func (o *oracle) satisfying(text string) ([]bool, error) {
	if set, ok := o.sets[text]; ok {
		return set, nil
	}
	vs, err := sparql.NewEngine(o.g).Select(text)
	if err != nil {
		return nil, fmt.Errorf("oracle: V(S,G) of %q: %w", text, err)
	}
	if len(vs) == 0 {
		// Such a constraint is answered without any search; no pool wants it.
		return nil, fmt.Errorf("oracle: no vertex satisfies %q", text)
	}
	set := make([]bool, len(o.adj))
	for _, v := range vs {
		set[v] = true
	}
	o.sets[text] = set
	return set, nil
}

// maxConstraints bounds a query's conjunction so a vertex's reached
// masks fit the uint8 in oracle.seen (2^3 masks).
const maxConstraints = 3

// reach explores everything s reaches along edges labelled within L,
// tracking which of the constraints (given as V(S,G) membership slices)
// some vertex on the path so far satisfies. Afterwards o.seen[v] has
// bit m set iff some L-path from s to v passes, for exactly the
// constraints in mask m, a satisfying vertex (endpoints count), and
// o.depth[v] is v's L-distance from s. It returns the number of states
// explored. The answer to (s, t, L, S...) is o.seen[t]>>full&1 with
// full = 1<<len(sets) - 1.
func (o *oracle) reach(s graph.VertexID, L labelset.Set, sets [][]bool) int {
	clear(o.seen)
	for i := range o.depth {
		o.depth[i] = -1
	}
	mask := func(v graph.VertexID) uint32 {
		var m uint32
		for i, set := range sets {
			if set[v] {
				m |= 1 << i
			}
		}
		return m
	}
	// A queue entry packs the state as vertex<<3 | mask.
	m0 := mask(s)
	o.seen[s] = 1 << m0
	o.depth[s] = 0
	o.queue = append(o.queue[:0], uint32(s)<<maxConstraints|m0)
	for head := 0; head < len(o.queue); head++ {
		v, m := graph.VertexID(o.queue[head]>>maxConstraints), o.queue[head]&(1<<maxConstraints-1)
		for _, a := range o.adj[v] {
			if !L.Contains(a.label) {
				continue
			}
			if o.depth[a.to] < 0 {
				o.depth[a.to] = o.depth[v] + 1
			}
			m2 := m | mask(a.to)
			if o.seen[a.to]>>m2&1 == 0 {
				o.seen[a.to] |= 1 << m2
				o.queue = append(o.queue, uint32(a.to)<<maxConstraints|m2)
			}
		}
	}
	return len(o.queue)
}

// holds evaluates one query from scratch.
func (o *oracle) holds(s, t graph.VertexID, L labelset.Set, sets [][]bool) bool {
	o.reach(s, L, sets)
	return o.reached(t, len(sets))
}

// reached reports whether the last reach call found t with every one of
// its k constraints satisfied.
func (o *oracle) reached(t graph.VertexID, k int) bool {
	full := uint(1)<<k - 1
	return o.seen[t]>>full&1 == 1
}
