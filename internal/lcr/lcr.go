// Package lcr implements label-constrained reachability (LCR) machinery:
// the online search the paper applies directly to LCR queries (§3), the
// full-transitive-closure CMS computation of Jin et al. [6], a spanning-
// tree-compressed index in the style of [6] (the "Sampling-Tree" of
// Figure 5), and a landmark index in the style of Valstar et al. [19]
// (the "Traditional" columns of Table 2).
//
// These are the baselines the paper argues cannot scale to KGs; they are
// implemented so the repository can regenerate Figure 5 and Table 2 and
// so the LSCR algorithms have a correctness oracle.
//
// The package also owns the repository's one label-constrained
// breadth-first walk, the pooled Walker: Reach and the reachable sets
// below, the landmark index's online fallback, the workload generator's
// target filter and the LSCR witness all run on it.
package lcr

import (
	"slices"

	"lscr/internal/graph"
	"lscr/internal/labelset"
)

// Reach reports whether s can reach t under label constraint L (s -L-> t),
// using BFS. The label constraint prunes the search space, so the cost is
// O(|V| + |E|) (§1 of the paper).
func Reach(g *graph.Graph, s, t graph.VertexID, L labelset.Set) bool {
	w := GetWalker()
	defer PutWalker(w)
	return w.Run(g, s, t, L, Walk{})
}

// ReachableSet returns every vertex reachable from s under L, including s,
// in BFS order.
func ReachableSet(g *graph.Graph, s graph.VertexID, L labelset.Set) []graph.VertexID {
	return closure(g, s, L, Walk{})
}

// ReachableSetReverse returns every vertex that can reach t under L,
// including t (a backward BFS over in-edges), in BFS order.
func ReachableSetReverse(g *graph.Graph, t graph.VertexID, L labelset.Set) []graph.VertexID {
	return closure(g, t, L, Walk{Reverse: true})
}

// closure walks everything v reaches (or, with o.Reverse, everything that
// reaches v) and copies the visit order out of the pooled walker.
func closure(g *graph.Graph, v graph.VertexID, L labelset.Set, o Walk) []graph.VertexID {
	w := GetWalker()
	defer PutWalker(w)
	w.Run(g, v, graph.NoVertex, L, o)
	return slices.Clone(w.Order())
}

// SourceCMS computes M(s, v) — the collection of minimal sufficient path
// label sets (Definition 2.3) — for every vertex v reachable from s. The
// result is indexed by vertex ID; unreachable vertices have a nil entry.
// s itself gets the CMS {∅}.
//
// The algorithm is a BFS over (vertex, label-set) states with antichain
// pruning: a state is expanded only while its label set is still minimal
// for its vertex. Worst case O(2^|ℒ|) states per vertex — this is the
// exponential cost that makes full-TC methods unusable on KGs (§3.2), and
// exactly what Figure 5 and Table 2's "Traditional" columns measure.
func SourceCMS(g *graph.Graph, s graph.VertexID) []*labelset.CMS {
	cms := make([]*labelset.CMS, g.NumVertices())
	return sourceCMSInto(g, s, cms, nil)
}

// sourceCMSInto is SourceCMS with a caller-supplied result slice and an
// optional per-state budget (<=0 means unlimited). It returns cms. The
// budget counts recorded (vertex, set) insertions and lets the landmark
// index bound non-landmark entries the way [19]'s parameter b does.
func sourceCMSInto(g *graph.Graph, s graph.VertexID, cms []*labelset.CMS, budget *int) []*labelset.CMS {
	type state struct {
		v graph.VertexID
		l labelset.Set
	}
	cms[s] = labelset.NewCMS(labelset.Set(0))
	queue := []state{{s, 0}}
	for len(queue) > 0 {
		st := queue[0]
		queue = queue[1:]
		if cms[st.v].HasProperSubset(st.l) {
			continue // superseded since enqueued
		}
		for _, e := range g.Out(st.v) {
			nl := st.l.Add(e.Label)
			if cms[e.To] == nil {
				cms[e.To] = labelset.NewCMS()
			}
			if cms[e.To].Insert(nl) {
				if budget != nil {
					*budget--
					if *budget < 0 {
						return cms
					}
				}
				queue = append(queue, state{e.To, nl})
			}
		}
	}
	return cms
}

// FullTC is the full transitive closure with per-pair CMS: the
// precomputation approach of [6] without compression. Only feasible on
// small graphs; the repository uses it as the ground-truth oracle.
type FullTC struct {
	cms [][]*labelset.CMS // [s][t]
}

// NewFullTC computes the closure of g.
func NewFullTC(g *graph.Graph) *FullTC {
	n := g.NumVertices()
	tc := &FullTC{cms: make([][]*labelset.CMS, n)}
	for s := 0; s < n; s++ {
		tc.cms[s] = SourceCMS(g, graph.VertexID(s))
	}
	return tc
}

// Reach answers s -L-> t from the closure.
func (tc *FullTC) Reach(s, t graph.VertexID, L labelset.Set) bool {
	return tc.cms[s][t].Covers(L)
}

// CMS returns M(s,t); nil when t is unreachable from s.
func (tc *FullTC) CMS(s, t graph.VertexID) *labelset.CMS { return tc.cms[s][t] }

// Entries returns the total number of minimal label sets stored.
func (tc *FullTC) Entries() int {
	n := 0
	for _, row := range tc.cms {
		for _, c := range row {
			n += c.Len()
		}
	}
	return n
}
