package lcr

import (
	"lscr/internal/graph"
	"lscr/internal/labelset"
)

// SCCIndex is an LCR index in the style of Zou et al. [25], the second
// baseline the paper reviews in §3.2: the graph is decomposed into
// strongly connected components, a local transitive closure (per-pair
// CMS) is precomputed inside every component, and queries combine the
// local closures across the condensation DAG.
//
// A structural fact makes the local closures complete: a path between
// two vertices of one SCC can never leave the SCC (if it passed an
// outside vertex x, then x would reach and be reached by the SCC,
// putting x inside it). The per-SCC closure is therefore exact, and only
// inter-component edges need online exploration.
//
// The construction cost is what the paper cares about: the local TC of a
// component with n vertices costs n × SourceCMS, which is why [25] "does
// not scale well on large graphs (|V| > 5.4k)" (§3.2).
type SCCIndex struct {
	g    *graph.Graph
	scc  []int32            // vertex -> component id
	comp [][]graph.VertexID // component id -> members
	// local[c] maps a member pair (u,v) to M(u, v | SCC c). Pairs with
	// no intra-component path are absent.
	local []map[[2]graph.VertexID]*labelset.CMS
}

// NewSCCIndex builds the index.
func NewSCCIndex(g *graph.Graph) *SCCIndex {
	idx := &SCCIndex{g: g}
	idx.scc, idx.comp = tarjanSCC(g)
	idx.local = make([]map[[2]graph.VertexID]*labelset.CMS, len(idx.comp))
	for c, members := range idx.comp {
		m := make(map[[2]graph.VertexID]*labelset.CMS)
		if len(members) > 1 || hasSelfLoop(g, members[0]) {
			for _, u := range members {
				for v, cms := range idx.sourceCMSWithin(c, u) {
					m[[2]graph.VertexID{u, v}] = cms
				}
			}
		}
		idx.local[c] = m
	}
	return idx
}

func hasSelfLoop(g *graph.Graph, v graph.VertexID) bool {
	for _, e := range g.Out(v) {
		if e.To == v {
			return true
		}
	}
	return false
}

// sourceCMSWithin computes M(u, v | SCC c) for every v in component c,
// skipping the trivial (u, u) empty-set pair.
func (idx *SCCIndex) sourceCMSWithin(c int, u graph.VertexID) map[graph.VertexID]*labelset.CMS {
	type state struct {
		v graph.VertexID
		l labelset.Set
	}
	out := make(map[graph.VertexID]*labelset.CMS)
	queue := []state{{u, 0}}
	insert := func(v graph.VertexID, l labelset.Set) bool {
		cms := out[v]
		if cms == nil {
			cms = labelset.NewCMS()
			out[v] = cms
		}
		return cms.Insert(l)
	}
	for len(queue) > 0 {
		st := queue[0]
		queue = queue[1:]
		if out[st.v].HasProperSubset(st.l) {
			continue // superseded since enqueued
		}
		for _, e := range idx.g.Out(st.v) {
			if idx.scc[e.To] != int32(c) {
				continue
			}
			nl := st.l.Add(e.Label)
			if insert(e.To, nl) {
				queue = append(queue, state{e.To, nl})
			}
		}
	}
	return out
}

// Reach answers s -L-> t using the index: intra-component hops are
// resolved by the local closures, inter-component edges are explored
// online.
func (idx *SCCIndex) Reach(s, t graph.VertexID, L labelset.Set) bool {
	if s == t {
		return true
	}
	g := idx.g
	marked := make([]bool, g.NumVertices())
	var queue []graph.VertexID
	mark := func(v graph.VertexID) {
		if !marked[v] {
			marked[v] = true
			queue = append(queue, v)
		}
	}
	// Seed: s plus everything s reaches inside its own component.
	mark(s)
	idx.expandWithin(s, L, mark)
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		if u == t {
			return true
		}
		rs := g.OutRuns(u)
		for ri, n := 0, rs.Len(); ri < n; ri++ {
			if !L.Contains(rs.Label(ri)) {
				continue
			}
			for _, e := range rs.Run(ri) {
				if idx.scc[e.To] == idx.scc[u] {
					continue // intra-component edges are covered by the closure
				}
				if !marked[e.To] {
					mark(e.To)
					idx.expandWithin(e.To, L, mark)
				}
			}
		}
	}
	return marked[t]
}

// expandWithin marks every vertex u reaches inside its component under L.
func (idx *SCCIndex) expandWithin(u graph.VertexID, L labelset.Set, mark func(graph.VertexID)) {
	c := idx.scc[u]
	for _, v := range idx.comp[c] {
		if v == u {
			continue
		}
		if cms, ok := idx.local[c][[2]graph.VertexID{u, v}]; ok && cms.Covers(L) {
			mark(v)
		}
	}
}

// NumComponents returns the number of SCCs.
func (idx *SCCIndex) NumComponents() int { return len(idx.comp) }

// Component returns the component id of v.
func (idx *SCCIndex) Component(v graph.VertexID) int { return int(idx.scc[v]) }

// Entries returns the number of stored minimal label sets.
func (idx *SCCIndex) Entries() int {
	n := 0
	for _, m := range idx.local {
		for _, cms := range m {
			n += cms.Len()
		}
	}
	return n
}

// SizeBytes estimates the index footprint.
func (idx *SCCIndex) SizeBytes() int64 {
	sz := int64(len(idx.scc)) * 4
	for _, m := range idx.local {
		for _, cms := range m {
			sz += 24 + int64(cms.Len())*8
		}
	}
	return sz
}

// SCCs computes the strongly connected components of g without building
// any closure: the vertex→component map plus the member lists. Use this
// for structural analysis; NewSCCIndex additionally precomputes the
// per-component transitive closures.
func SCCs(g *graph.Graph) (componentOf []int32, members [][]graph.VertexID) {
	return tarjanSCC(g)
}

// tarjanSCC computes strongly connected components iteratively (Tarjan),
// returning the vertex→component map and the member lists. Component ids
// are in reverse topological order of the condensation (Tarjan's natural
// output order).
func tarjanSCC(g *graph.Graph) ([]int32, [][]graph.VertexID) {
	n := g.NumVertices()
	const unvisited = -1
	index := make([]int32, n)
	low := make([]int32, n)
	onStack := make([]bool, n)
	sccOf := make([]int32, n)
	for i := range index {
		index[i] = unvisited
		sccOf[i] = unvisited
	}
	var (
		counter int32
		stack   []graph.VertexID
		comps   [][]graph.VertexID
	)
	type frame struct {
		v    graph.VertexID
		edge int
	}
	for root := 0; root < n; root++ {
		if index[root] != unvisited {
			continue
		}
		frames := []frame{{v: graph.VertexID(root)}}
		index[root] = counter
		low[root] = counter
		counter++
		stack = append(stack, graph.VertexID(root))
		onStack[root] = true
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			out := g.Out(f.v)
			advanced := false
			for f.edge < len(out) {
				w := out[f.edge].To
				f.edge++
				if index[w] == unvisited {
					index[w] = counter
					low[w] = counter
					counter++
					stack = append(stack, w)
					onStack[w] = true
					frames = append(frames, frame{v: w})
					advanced = true
					break
				}
				if onStack[w] && index[w] < low[f.v] {
					low[f.v] = index[w]
				}
			}
			if advanced {
				continue
			}
			// f.v is finished.
			if low[f.v] == index[f.v] {
				var members []graph.VertexID
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					sccOf[w] = int32(len(comps))
					members = append(members, w)
					if w == f.v {
						break
					}
				}
				comps = append(comps, members)
			}
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				p := &frames[len(frames)-1]
				if low[f.v] < low[p.v] {
					low[p.v] = low[f.v]
				}
			}
		}
	}
	return sccOf, comps
}
