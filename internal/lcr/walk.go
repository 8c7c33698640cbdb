package lcr

import (
	"sync"

	"lscr/internal/graph"
	"lscr/internal/labelset"
)

// VisitSet is an epoch-stamped visited set: v counts as visited in the
// current pass iff its stamp equals the pass epoch, so Reset starts a new
// pass in O(1) instead of allocating (or zeroing) a |V|-sized []bool per
// search. The zero value is ready after Reset.
type VisitSet struct {
	stamp []uint32
	epoch uint32
}

// Reset starts a new pass over a universe of n vertices. The array grows
// with ~12% slack: a live graph's vertex count creeps upward as mutation
// batches intern vertices, and an exact fit would reallocate every few.
func (s *VisitSet) Reset(n int) {
	if len(s.stamp) < n || s.epoch == ^uint32(0) {
		s.stamp = make([]uint32, n+n/8)
		s.epoch = 0
	}
	s.epoch++
}

// Visited reports whether v was visited in the current pass.
func (s *VisitSet) Visited(v graph.VertexID) bool { return s.stamp[v] == s.epoch }

// Visit marks v visited in the current pass.
func (s *VisitSet) Visit(v graph.VertexID) { s.stamp[v] = s.epoch }

// Parent is the edge by which a walk discovered a vertex: From was being
// expanded and the edge carried Label.
type Parent struct {
	From  graph.VertexID
	Label graph.Label
}

// Step is a Walk.Visit hook's verdict on a dequeued vertex.
type Step uint8

const (
	Expand Step = iota // expand the vertex's edges under L
	Skip               // keep walking without expanding the vertex
	Stop               // end the walk
)

// Walk holds the optional parts of one Walker.Run; the zero value is a
// plain forward walk.
type Walk struct {
	// Reverse follows in-edges, so the walk discovers the vertices that
	// reach the start vertex.
	Reverse bool
	// Parents records every discovered vertex's Parent.
	Parents bool
	// Visit, when set, is called once per dequeued vertex (the start
	// vertex included) before that vertex is expanded.
	Visit func(u graph.VertexID) Step
}

// Walker is the repository's one label-constrained breadth-first walk —
// the online search of §3, expanding only edges whose label is in L. It
// owns its visited set, worklist and parent table and reuses them across
// walks, so a warmed walker allocates nothing. A Walker serves one walk at
// a time; take one from the pool with GetWalker.
type Walker struct {
	seen   VisitSet
	order  []graph.VertexID
	parent []Parent
}

var walkers = sync.Pool{New: func() any { return new(Walker) }}

// GetWalker borrows a walker from the shared pool.
func GetWalker() *Walker { return walkers.Get().(*Walker) }

// PutWalker returns w to the pool; w and the slices it returned must not
// be used afterwards.
func PutWalker(w *Walker) { walkers.Put(w) }

// Run walks g breadth-first from s under L and reports whether t was
// discovered; the walk ends as soon as it is (s == t counts at once). Pass
// graph.NoVertex as t to walk the whole closure. A Stop from o.Visit ends
// the walk and reports false.
func (w *Walker) Run(g *graph.Graph, s, t graph.VertexID, L labelset.Set, o Walk) bool {
	n := g.NumVertices()
	w.seen.Reset(n)
	if o.Parents && len(w.parent) < n {
		w.parent = make([]Parent, n+n/8)
	}
	w.seen.Visit(s)
	order := append(w.order[:0], s)
	found := s == t
walk:
	for head := 0; !found && head < len(order); head++ {
		u := order[head]
		if o.Visit != nil {
			switch o.Visit(u) {
			case Skip:
				continue
			case Stop:
				break walk
			}
		}
		var rs graph.EdgeRuns
		if o.Reverse {
			rs = g.InRuns(u)
		} else {
			rs = g.OutRuns(u)
		}
		for ri, nr := 0, rs.Len(); ri < nr; ri++ {
			if !L.Contains(rs.Label(ri)) {
				continue
			}
			for _, e := range rs.Run(ri) {
				if w.seen.Visited(e.To) {
					continue
				}
				w.seen.Visit(e.To)
				if o.Parents {
					w.parent[e.To] = Parent{From: u, Label: e.Label}
				}
				order = append(order, e.To)
				if e.To == t {
					found = true
					break walk
				}
			}
		}
	}
	w.order = order
	return found
}

// Order returns the vertices the last walk discovered, in BFS visit
// order, starting with s. The slice aliases the walker.
func (w *Walker) Order() []graph.VertexID { return w.order }

// Visited reports whether the last walk discovered v.
func (w *Walker) Visited(v graph.VertexID) bool { return w.seen.Visited(v) }

// Parent returns how the last walk discovered v; it is meaningful only
// for a discovered v ≠ s of a walk run with Parents.
func (w *Walker) Parent(v graph.VertexID) Parent { return w.parent[v] }
