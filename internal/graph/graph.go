// Package graph implements the knowledge-graph substrate of the paper: a
// directed edge-labeled multigraph G = (V, E, ℒ, LS) (Definition 2.1) with
// vertex and label dictionaries. The RDFS store LS is not a separate
// structure: its vocabulary triples (rdf:type, rdfs:subClassOf, ...) are
// labeled edges like any other (see package rdf).
//
// Vertices are dense uint32 IDs assigned by a Builder; adjacency is stored
// both forward and backward so search algorithms and the SPARQL engine can
// traverse either direction. A Graph is immutable after Build and safe for
// concurrent readers.
//
// # Storage layout
//
// Adjacency is CSR (compressed sparse row): one flat []Edge array per
// direction plus a []uint32 offset array, so Out(v)/In(v) are contiguous
// subslices with no per-vertex pointer hop. Each vertex's edge run is
// sorted by (label, head), and a compact per-vertex label-run index
// records where each label's sub-run starts. Every search the paper
// defines spends its inner loop walking adjacency and discarding edges
// whose label is outside the query's label constraint L; the label-grouped
// layout lets OutRuns/InRuns skip non-matching edges entirely — for
// a selective L the traversal touches only the matching runs instead of
// testing every edge — and makes HasEdge a binary search instead of a
// linear scan.
package graph

import (
	"fmt"
	"slices"
	"sort"

	"lscr/internal/labelset"
)

// VertexID identifies a vertex. IDs are dense: 0..NumVertices-1.
type VertexID uint32

// NoVertex is a sentinel returned by lookups that find nothing.
const NoVertex = VertexID(^uint32(0))

// Label identifies an edge label; it is the same numeric space as
// labelset.Label.
type Label = labelset.Label

// Edge is one labeled arc endpoint as seen from some vertex's adjacency
// list. For an out-edge, To is the head; for an in-edge, To is the tail.
type Edge struct {
	To    VertexID
	Label Label
}

// Triple is a fully specified labeled edge (s, l, t).
type Triple struct {
	Subject VertexID
	Label   Label
	Object  VertexID
}

// adjacency is one direction of the CSR storage: the edges of vertex v
// occupy edges[off[v]:off[v+1]], sorted by (Label, To), and the label runs
// of v occupy runLabel/runStart[runOff[v]:runOff[v+1]] — run i covers
// edges[runStart[i] : next run's start or off[v+1]). A withoutLabelIndex
// view carries a degenerate run index (one run per edge), which turns
// labeled iteration into a per-edge filtering scan on the same code path.
type adjacency struct {
	edges []Edge
	off   []uint32 // len |V|+1

	runStart []uint32 // absolute offset into edges where run begins
	runLabel []Label  // the run's label
	runOff   []uint32 // len |V|+1; runs of v: [runOff[v], runOff[v+1])
}

// run returns the full contiguous edge run of v.
func (a *adjacency) run(v VertexID) []Edge { return a.edges[a.off[v]:a.off[v+1]:a.off[v+1]] }

// with returns the contiguous sub-run of v's edges carrying exactly label
// l, located by binary search over the (label, head)-sorted run.
func (a *adjacency) with(v VertexID, l Label) []Edge {
	es := a.run(v)
	lo := sort.Search(len(es), func(i int) bool { return es[i].Label >= l })
	hi := lo
	for hi < len(es) && es[hi].Label == l {
		hi++
	}
	return es[lo:hi:hi]
}

// runs returns the raw label-run view of v.
func (a *adjacency) runs(v VertexID) EdgeRuns {
	return EdgeRuns{a: a, lo: a.runOff[v], hi: a.runOff[v+1], end: a.off[v+1]}
}

// EdgeRuns is the raw label-run view of one vertex's adjacency: Label(i)
// is the label of run i and Run(i) its contiguous edge slice. Hot loops
// test each run label against the constraint set and read only the
// matching runs — with no function call per run (the accessors all
// inline) and no struct copy per vertex (the view is one pointer and
// three offsets):
//
//	rs := g.OutRuns(u)
//	for ri, n := 0, rs.Len(); ri < n; ri++ {
//		if !L.Contains(rs.Label(ri)) {
//			continue
//		}
//		for _, e := range rs.Run(ri) { ... }
//	}
//
// On a withoutLabelIndex view the runs are degenerate (one edge each), so
// the same loop performs the seed layout's per-edge filtering scan.
type EdgeRuns struct {
	a      *adjacency
	lo, hi uint32 // run index range of the vertex
	end    uint32 // end edge offset of the vertex's whole run
}

// Len returns the number of label runs of the vertex.
func (r EdgeRuns) Len() int { return int(r.hi - r.lo) }

// Label returns the label of run i (runs are in ascending label order).
func (r EdgeRuns) Label(i int) Label { return r.a.runLabel[r.lo+uint32(i)] }

// Run returns the edges of run i. The slice aliases graph storage and
// must not be mutated.
func (r EdgeRuns) Run(i int) []Edge {
	a := r.a
	ri := r.lo + uint32(i)
	start := a.runStart[ri]
	end := r.end
	if ri+1 < r.hi {
		end = a.runStart[ri+1]
	}
	return a.edges[start:end:end]
}

// Graph is an immutable edge-labeled multigraph with vertex and label
// dictionaries. Build one with a Builder. A Graph produced by
// Delta.Commit additionally carries an overlay (see delta.go); every
// accessor below answers for the merged view, and the base arrays are
// shared untouched across commits.
type Graph struct {
	names      []string            // base vertex id -> name
	vertexIDs  map[string]VertexID // base name -> vertex id; nil when nameOrder serves lookups
	nameOrder  []uint32            // base ids in ascending-name order; the segment boot path's map replacement
	labelNames []string            // base label id -> name
	labelIDs   map[string]Label    // base name -> label id

	out adjacency
	in  adjacency

	ov *overlay // nil for a plain base CSR

	numEdges int // base edge count; overlay adds/deletes tracked in ov
}

// NumVertices returns |V|.
func (g *Graph) NumVertices() int {
	if g.ov != nil {
		return len(g.names) + len(g.ov.names)
	}
	return len(g.names)
}

// NumEdges returns |E|.
func (g *Graph) NumEdges() int {
	if g.ov != nil {
		return g.numEdges + g.ov.added - g.ov.deleted
	}
	return g.numEdges
}

// NumLabels returns |ℒ|.
func (g *Graph) NumLabels() int {
	if g.ov != nil {
		return len(g.labelNames) + len(g.ov.labels)
	}
	return len(g.labelNames)
}

// LabelUniverse returns the label set containing every label of the graph.
func (g *Graph) LabelUniverse() labelset.Set { return labelset.Universe(g.NumLabels()) }

// VertexName returns the dictionary name of v.
func (g *Graph) VertexName(v VertexID) string {
	if int(v) < len(g.names) {
		return g.names[v]
	}
	return g.ov.names[int(v)-len(g.names)]
}

// Vertex looks up a vertex by name, returning NoVertex if absent.
func (g *Graph) Vertex(name string) VertexID {
	if g.vertexIDs != nil {
		if id, ok := g.vertexIDs[name]; ok {
			return id
		}
	} else if id, ok := g.searchName(name); ok {
		return id
	}
	if g.ov != nil {
		if id, ok := g.ov.nameIDs[name]; ok {
			return id
		}
	}
	return NoVertex
}

// searchName resolves a base vertex name through nameOrder, the sorted
// permutation a segment carries so boot never has to build (or allocate)
// a hash map over the dictionary. A lookup is log2|V| string probes of
// the mmap'd dictionary — nanoseconds against a query's traversal work.
func (g *Graph) searchName(name string) (VertexID, bool) {
	lo, hi := 0, len(g.nameOrder)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if g.names[g.nameOrder[mid]] < name {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(g.nameOrder) {
		if id := g.nameOrder[lo]; g.names[id] == name {
			return VertexID(id), true
		}
	}
	return 0, false
}

// LabelName returns the dictionary name of l.
func (g *Graph) LabelName(l Label) string {
	if int(l) < len(g.labelNames) {
		return g.labelNames[l]
	}
	return g.ov.labels[int(l)-len(g.labelNames)]
}

// LabelByName looks up a label by name. The second result reports whether
// the label exists.
func (g *Graph) LabelByName(name string) (Label, bool) {
	if l, ok := g.labelIDs[name]; ok {
		return l, true
	}
	if g.ov != nil {
		if l, ok := g.ov.labelIDs[name]; ok {
			return l, true
		}
	}
	return 0, false
}

// Out returns the out-edges of v, sorted by (label, head). The slice is a
// contiguous CSR run (base or patch row); it aliases internal storage and
// must not be mutated.
func (g *Graph) Out(v VertexID) []Edge {
	if ov := g.ov; ov != nil {
		return ov.out.row(v, &g.out, ov.baseV)
	}
	return g.out.run(v)
}

// In returns the in-edges of v (Edge.To is the source vertex), sorted by
// (label, tail). The slice aliases internal storage and must not be
// mutated.
func (g *Graph) In(v VertexID) []Edge {
	if ov := g.ov; ov != nil {
		return ov.in.row(v, &g.in, ov.baseV)
	}
	return g.in.run(v)
}

// OutRuns returns the raw label-run view of v's out-edges: one label-pure
// run per label, in ascending label order, for the search loops to test
// against a constraint set (see EdgeRuns). On an overlay view a mutated
// vertex answers from its merged patch row (same run shape, deletions
// already masked) and an untouched vertex from its base row.
func (g *Graph) OutRuns(v VertexID) EdgeRuns {
	if ov := g.ov; ov != nil {
		return ov.out.runs(v, &g.out, ov.baseV)
	}
	return g.out.runs(v)
}

// InRuns is OutRuns over the in-adjacency.
func (g *Graph) InRuns(v VertexID) EdgeRuns {
	if ov := g.ov; ov != nil {
		return ov.in.runs(v, &g.in, ov.baseV)
	}
	return g.in.runs(v)
}

// OutWith returns the out-edges of v labeled exactly l, located by binary
// search — no edges outside the run are touched. The slice aliases
// internal storage and must not be mutated.
func (g *Graph) OutWith(v VertexID, l Label) []Edge {
	if ov := g.ov; ov != nil {
		return ov.out.with(v, l, &g.out, ov.baseV)
	}
	return g.out.with(v, l)
}

// InWith is OutWith over the in-adjacency.
func (g *Graph) InWith(v VertexID, l Label) []Edge {
	if ov := g.ov; ov != nil {
		return ov.in.with(v, l, &g.in, ov.baseV)
	}
	return g.in.with(v, l)
}

// OutDegree returns the number of out-edges of v.
func (g *Graph) OutDegree(v VertexID) int {
	if g.ov != nil {
		return len(g.Out(v))
	}
	return int(g.out.off[v+1] - g.out.off[v])
}

// InDegree returns the number of in-edges of v.
func (g *Graph) InDegree(v VertexID) int {
	if g.ov != nil {
		return len(g.In(v))
	}
	return int(g.in.off[v+1] - g.in.off[v])
}

// Degree returns the total degree of v.
func (g *Graph) Degree(v VertexID) int { return g.OutDegree(v) + g.InDegree(v) }

// HasEdge reports whether the edge (s, l, t) exists, by binary search over
// the (label, head)-sorted run of s — O(log deg) instead of the O(deg)
// scan the slice-of-slices layout forced. On an overlay view the search
// runs over s's merged row, so deleted instances do not count.
func (g *Graph) HasEdge(s VertexID, l Label, t VertexID) bool {
	es := g.Out(s)
	i := sort.Search(len(es), func(i int) bool {
		e := es[i]
		return e.Label > l || e.Label == l && e.To >= t
	})
	return i < len(es) && es[i].Label == l && es[i].To == t
}

// Triples calls fn for every edge of the graph, in (subject, label,
// object) order. It stops early if fn returns false.
func (g *Graph) Triples(fn func(Triple) bool) {
	n := g.NumVertices()
	for s := 0; s < n; s++ {
		for _, e := range g.Out(VertexID(s)) {
			if !fn(Triple{VertexID(s), e.Label, e.To}) {
				return
			}
		}
	}
}

// withoutLabelIndex returns a view of g that shares the CSR edge storage
// (same edges, same offsets, same iteration order) but replaces the
// label-run index with degenerate one-edge runs: OutRuns/InRuns then scan
// every edge of the vertex and test its label — exactly the access
// pattern of the pre-CSR slice-of-slices layout, on the identical code
// path. It exists so benchmarks and equivalence tests can compare the
// labeled scan against the filtering scan on bit-identical search
// behaviour.
func (g *Graph) withoutLabelIndex() *Graph {
	h := *g
	h.out = degenerateRuns(g.out)
	h.in = degenerateRuns(g.in)
	if g.ov != nil {
		ov := *g.ov
		ov.out = g.ov.out.degenerate()
		ov.in = g.ov.in.degenerate()
		h.ov = &ov
	}
	return &h
}

// degenerateRuns rebuilds an adjacency's run index as one run per edge.
func degenerateRuns(a adjacency) adjacency {
	d := a
	d.runOff = a.off
	d.runStart = make([]uint32, len(a.edges))
	d.runLabel = make([]Label, len(a.edges))
	for i, e := range a.edges {
		d.runStart[i] = uint32(i)
		d.runLabel[i] = e.Label
	}
	return d
}

// Density returns |E|/|V|, the D of Figure 5.
func (g *Graph) Density() float64 {
	if g.NumVertices() == 0 {
		return 0
	}
	return float64(g.NumEdges()) / float64(g.NumVertices())
}

// String summarises the graph for diagnostics.
func (g *Graph) String() string {
	return fmt.Sprintf("Graph(|V|=%d |E|=%d |L|=%d)", g.NumVertices(), g.NumEdges(), g.NumLabels())
}

// Builder accumulates vertices and edges and produces an immutable Graph.
// The zero value is not usable; call NewBuilder.
type Builder struct {
	names      []string
	vertexIDs  map[string]VertexID
	labelNames []string
	labelIDs   map[string]Label

	edges []Triple
}

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder {
	return &Builder{
		vertexIDs: make(map[string]VertexID),
		labelIDs:  make(map[string]Label),
	}
}

// Vertex interns a vertex by name and returns its ID, creating it on first
// use.
func (b *Builder) Vertex(name string) VertexID {
	if id, ok := b.vertexIDs[name]; ok {
		return id
	}
	id := VertexID(len(b.names))
	b.names = append(b.names, name)
	b.vertexIDs[name] = id
	return id
}

// Label interns a label by name and returns its ID. It panics if more than
// labelset.MaxLabels distinct labels are interned; the substrate's label
// universe is a single machine word by design (see package labelset).
func (b *Builder) Label(name string) Label {
	if l, ok := b.labelIDs[name]; ok {
		return l
	}
	if len(b.labelNames) >= labelset.MaxLabels {
		panic(fmt.Sprintf("graph: label universe exceeds %d (adding %q)", labelset.MaxLabels, name))
	}
	l := Label(len(b.labelNames))
	b.labelNames = append(b.labelNames, name)
	b.labelIDs[name] = l
	return l
}

// AddEdge records the edge (s, l, t). Parallel edges and self-loops are
// permitted (the graph is a multigraph).
func (b *Builder) AddEdge(s VertexID, l Label, t VertexID) {
	b.edges = append(b.edges, Triple{s, l, t})
}

// AddEdgeNames interns the endpoint and label names and records the edge.
func (b *Builder) AddEdgeNames(s, label, t string) {
	b.AddEdge(b.Vertex(s), b.Label(label), b.Vertex(t))
}

// NumVertices returns the number of vertices interned so far.
func (b *Builder) NumVertices() int { return len(b.names) }

// NumEdges returns the number of edges recorded so far.
func (b *Builder) NumEdges() int { return len(b.edges) }

// Build freezes the Builder into an immutable CSR Graph: flat edge arrays
// per direction, each vertex's run sorted by (label, head) with the
// label-run index alongside. The Builder may not be used afterwards.
func (b *Builder) Build() *Graph {
	n := len(b.names)
	g := &Graph{
		names:      b.names,
		vertexIDs:  b.vertexIDs,
		labelNames: b.labelNames,
		labelIDs:   b.labelIDs,
		numEdges:   len(b.edges),
	}
	// One in-place sort of the triple list per direction; the flat edge
	// arrays then fill sequentially, so Build allocates exactly the final
	// storage.
	slices.SortFunc(b.edges, func(a, c Triple) int {
		if a.Subject != c.Subject {
			return int(a.Subject) - int(c.Subject)
		}
		if a.Label != c.Label {
			return int(a.Label) - int(c.Label)
		}
		return int(a.Object) - int(c.Object)
	})
	g.out = buildCSR(b.edges, n, func(t Triple) (VertexID, Edge) {
		return t.Subject, Edge{To: t.Object, Label: t.Label}
	})
	slices.SortFunc(b.edges, func(a, c Triple) int {
		if a.Object != c.Object {
			return int(a.Object) - int(c.Object)
		}
		if a.Label != c.Label {
			return int(a.Label) - int(c.Label)
		}
		return int(a.Subject) - int(c.Subject)
	})
	g.in = buildCSR(b.edges, n, func(t Triple) (VertexID, Edge) {
		return t.Object, Edge{To: t.Subject, Label: t.Label}
	})
	b.edges = nil
	return g
}

// buildCSR lays the (already vertex-then-label sorted) triples out as one
// adjacency direction, computing the offsets and the label-run index in a
// single pass.
func buildCSR(edges []Triple, n int, extract func(Triple) (VertexID, Edge)) adjacency {
	a := adjacency{
		edges:  make([]Edge, len(edges)),
		off:    make([]uint32, n+1),
		runOff: make([]uint32, n+1),
	}
	cur := VertexID(0)
	lastLabel := Label(0)
	for i, t := range edges {
		v, e := extract(t)
		for cur < v { // close out empty and finished vertices
			cur++
			a.off[cur] = uint32(i)
			a.runOff[cur] = uint32(len(a.runStart))
		}
		if len(a.runStart) == int(a.runOff[v]) || e.Label != lastLabel {
			a.runStart = append(a.runStart, uint32(i))
			a.runLabel = append(a.runLabel, e.Label)
			lastLabel = e.Label
		}
		a.edges[i] = e
	}
	for cur < VertexID(n) {
		cur++
		a.off[cur] = uint32(len(edges))
		a.runOff[cur] = uint32(len(a.runStart))
	}
	return a
}
