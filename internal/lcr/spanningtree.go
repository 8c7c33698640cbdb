package lcr

import (
	"lscr/internal/graph"
	"lscr/internal/labelset"
)

// SpanningTreeIndex is a spanning-forest-compressed full transitive
// closure in the style of Jin et al. [6] — the "Sampling-Tree" whose
// indexing time Figure 5 reports. The index consists of:
//
//   - a BFS spanning forest of the graph: parent links with edge labels,
//     which encode one sufficient path label set for every
//     (ancestor, descendant) pair for free; and
//   - a partial transitive closure: for every ordered pair (s, t), the
//     minimal sufficient label sets of M(s,t) *not* already covered by
//     the unique forest path from s to t.
//
// The construction cost is dominated by the per-source CMS computation,
// which is what blows up linearly in density and exponentially in |V| —
// the trend Figure 5 demonstrates. It is written from Jin et al.'s
// description, not ported from their C++ code, and uses a plain BFS
// forest where they sample for a better tree: the per-source closure,
// which both share, dominates the cost, so the trend does not depend on
// the choice of tree.
type SpanningTreeIndex struct {
	n      int
	parent []graph.VertexID // forest parent; NoVertex at roots
	plabel []graph.Label    // label of the parent edge
	depth  []int32
	root   []graph.VertexID // forest root of each vertex

	// partial[s][t] holds M(s,t) minus sets covered by the tree path.
	// A nil inner map means s reaches nothing beyond its tree path.
	partial []map[graph.VertexID]*labelset.CMS
}

// NewSpanningTreeIndex builds the index for g.
func NewSpanningTreeIndex(g *graph.Graph) *SpanningTreeIndex {
	n := g.NumVertices()
	idx := &SpanningTreeIndex{
		n:       n,
		parent:  make([]graph.VertexID, n),
		plabel:  make([]graph.Label, n),
		depth:   make([]int32, n),
		root:    make([]graph.VertexID, n),
		partial: make([]map[graph.VertexID]*labelset.CMS, n),
	}
	for v := range idx.parent {
		idx.parent[v] = graph.NoVertex
		idx.root[v] = graph.NoVertex
	}
	// BFS forest over the whole graph, ignoring labels: roots are chosen
	// in ID order among the still-uncovered vertices.
	for r := 0; r < n; r++ {
		if idx.root[r] != graph.NoVertex {
			continue
		}
		idx.root[r] = graph.VertexID(r)
		queue := []graph.VertexID{graph.VertexID(r)}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, e := range g.Out(u) {
				if idx.root[e.To] != graph.NoVertex {
					continue
				}
				idx.root[e.To] = graph.VertexID(r)
				idx.parent[e.To] = u
				idx.plabel[e.To] = e.Label
				idx.depth[e.To] = idx.depth[u] + 1
				queue = append(queue, e.To)
			}
		}
	}
	// Partial transitive closure: per-source CMS minus tree-covered sets.
	for s := 0; s < n; s++ {
		src := graph.VertexID(s)
		full := SourceCMS(g, src)
		var m map[graph.VertexID]*labelset.CMS
		for t := 0; t < n; t++ {
			c := full[t]
			if c == nil || src == graph.VertexID(t) {
				continue
			}
			treeSet, onTree := idx.treePathLabels(src, graph.VertexID(t))
			kept := labelset.NewCMS()
			for _, ls := range c.Sets() {
				if onTree && treeSet.SubsetOf(ls) {
					continue // the tree path already certifies ls
				}
				kept.Insert(ls)
			}
			if kept.Len() == 0 {
				continue
			}
			if m == nil {
				m = make(map[graph.VertexID]*labelset.CMS)
			}
			m[graph.VertexID(t)] = kept
		}
		idx.partial[s] = m
	}
	return idx
}

// treePathLabels returns the label set of the unique forest path from s
// down to t, and whether such a path exists (s must be an ancestor of t
// in the same tree).
func (idx *SpanningTreeIndex) treePathLabels(s, t graph.VertexID) (labelset.Set, bool) {
	if idx.root[s] != idx.root[t] {
		return 0, false
	}
	var ls labelset.Set
	for t != s {
		if idx.depth[t] <= idx.depth[s] || idx.parent[t] == graph.NoVertex {
			return 0, false
		}
		ls = ls.Add(idx.plabel[t])
		t = idx.parent[t]
	}
	return ls, true
}

// Reach answers s -L-> t from the index alone.
func (idx *SpanningTreeIndex) Reach(s, t graph.VertexID, L labelset.Set) bool {
	if s == t {
		return true
	}
	if ts, ok := idx.treePathLabels(s, t); ok && ts.SubsetOf(L) {
		return true
	}
	if m := idx.partial[s]; m != nil {
		if c, ok := m[t]; ok && c.Covers(L) {
			return true
		}
	}
	return false
}

// Entries returns the number of minimal label sets stored in the partial
// closure (the tree itself costs O(|V|)).
func (idx *SpanningTreeIndex) Entries() int {
	n := 0
	for _, m := range idx.partial {
		for _, c := range m {
			n += c.Len()
		}
	}
	return n
}

// SizeBytes estimates the in-memory index footprint: forest arrays plus
// 8 bytes per stored label set and 16 bytes per (target, CMS) slot.
func (idx *SpanningTreeIndex) SizeBytes() int64 {
	sz := int64(idx.n) * (4 + 1 + 4 + 4) // parent, plabel, depth, root
	for _, m := range idx.partial {
		for _, c := range m {
			sz += 16 + int64(c.Len())*8
		}
	}
	return sz
}
