package graph

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"lscr/internal/labelset"
)

// Live mutations. A Graph built by Build is a frozen CSR; Delta stages a
// batch of edge insertions/deletions (plus new-vertex and new-label
// interning) against any Graph view and Commit produces a NEW immutable
// Graph that layers the accumulated changes over the same base CSR as a
// small overlay. The base arrays are never modified, so readers holding
// the old Graph keep a fully consistent view forever — the engine layer
// swaps the current view atomically (RCU-style epochs).
//
// # Overlay layout
//
// The overlay stores, per direction, the COMPLETE merged adjacency row of
// every vertex touched by a mutation since the base was built: base edges
// minus deletions plus insertions, (label, head)-sorted with a label-run
// index — the exact shape of a base CSR row, packed into one mini-CSR
// indexed by a dense slot number. OutRuns/InRuns and friends answer from
// the patch row when the vertex is touched and from the base row
// otherwise, so the hot loops keep their run-scan shape: merged label
// runs, deletions already masked, zero per-edge branching. An untouched
// read costs one nil check (no overlay) or one bitmap probe.
//
// Deletions use multiset semantics (the graph is a multigraph): one
// DeleteEdge removes one instance of the triple and fails with
// ErrEdgeNotFound when no instance remains.
//
// Compact folds the overlay back into a fresh base CSR that is
// observationally identical to the overlay view (same dictionaries in
// the same ID order, same ordered Triples, same runs) — the property the
// delta fuzz suite pins down.

// Mutation errors.
var (
	// ErrEdgeNotFound reports a DeleteEdge whose triple has no remaining
	// instance in the staged view.
	ErrEdgeNotFound = errors.New("graph: edge not found")
	// ErrLabelSpace reports label interning beyond labelset.MaxLabels.
	ErrLabelSpace = fmt.Errorf("graph: label universe exceeds %d", labelset.MaxLabels)
	// ErrVertexRange reports an edge endpoint outside the staged view.
	ErrVertexRange = errors.New("graph: vertex out of range")
)

// deltaOp is one resolved edge mutation of the overlay log, in commit
// order. The log is what a compactor replays onto a fresh base when
// mutations land while it is rebuilding.
type deltaOp struct {
	del bool
	t   Triple
}

// overlay is the immutable delta layered over a base CSR. All slices and
// maps are frozen at Commit; successive commits build new overlays.
type overlay struct {
	baseV int // vertex-dictionary size of the base
	baseL int // label-dictionary size of the base

	names    []string // new vertices: VertexID = baseV + position
	nameIDs  map[string]VertexID
	labels   []string // new labels: Label = baseL + position
	labelIDs map[string]Label

	log     []deltaOp
	added   int // edge insertions in log
	deleted int // edge deletions in log

	out, in patchAdj
}

// patchAdj holds the merged adjacency rows of the touched vertices of one
// direction as a mini-CSR: row i of a covers the vertex with slot i.
type patchAdj struct {
	touched []uint64 // bitmap over all view vertices
	slot    map[VertexID]uint32
	a       adjacency
}

// has reports whether v owns a patch row.
func (p *patchAdj) has(v VertexID) bool {
	w := uint(v) >> 6
	return w < uint(len(p.touched)) && p.touched[w]&(1<<(uint(v)&63)) != 0
}

// row returns the merged edge row of v, falling back to the base row for
// untouched base vertices; untouched new vertices have no edges.
func (p *patchAdj) row(v VertexID, base *adjacency, baseV int) []Edge {
	if p.has(v) {
		return p.a.run(VertexID(p.slot[v]))
	}
	if int(v) < baseV {
		return base.run(v)
	}
	return nil
}

// runs is row as the raw label-run view.
func (p *patchAdj) runs(v VertexID, base *adjacency, baseV int) EdgeRuns {
	if p.has(v) {
		return p.a.runs(VertexID(p.slot[v]))
	}
	if int(v) < baseV {
		return base.runs(v)
	}
	return EdgeRuns{}
}

// with is row restricted to one exact label.
func (p *patchAdj) with(v VertexID, l Label, base *adjacency, baseV int) []Edge {
	if p.has(v) {
		return p.a.with(VertexID(p.slot[v]), l)
	}
	if int(v) < baseV {
		return base.with(v, l)
	}
	return nil
}

// Delta stages one batch of mutations against a Graph view. It is not
// safe for concurrent use; the engine layer serializes writers. Staging
// never modifies the view — Commit returns a new Graph and leaves the
// old one (and the Delta) untouched.
type Delta struct {
	g *Graph

	names    []string // interned beyond the view, in intern order
	nameIDs  map[string]VertexID
	labels   []string
	labelIDs map[string]Label

	ops []deltaOp
	// counts tracks the staged multiset delta per triple so DeleteEdge
	// can validate against (view + earlier staged ops).
	counts map[Triple]int
}

// NewDelta stages against the view g.
func NewDelta(g *Graph) *Delta {
	return &Delta{
		g:        g,
		nameIDs:  make(map[string]VertexID),
		labelIDs: make(map[string]Label),
		counts:   make(map[Triple]int),
	}
}

// Ops returns the number of staged edge operations.
func (d *Delta) Ops() int { return len(d.ops) }

// EdgeOp is one resolved edge mutation in commit order, exported for the
// index-maintenance layer: incremental index updates consume exactly the
// validated op stream a batch commits.
type EdgeOp struct {
	Del bool
	T   Triple
}

// EdgeOps returns the staged edge operations in commit order.
func (d *Delta) EdgeOps() []EdgeOp {
	ops := make([]EdgeOp, len(d.ops))
	for i, op := range d.ops {
		ops[i] = EdgeOp{Del: op.del, T: op.t}
	}
	return ops
}

// OverlayEdgeOps returns the overlay log suffix log[from:] as edge
// operations — the mutations that landed after a compactor snapshotted
// its epoch at from logged ops, which its rebuilt index must be
// maintained through.
func (g *Graph) OverlayEdgeOps(from int) []EdgeOp {
	if g.ov == nil || from >= len(g.ov.log) {
		return nil
	}
	log := g.ov.log[from:]
	ops := make([]EdgeOp, len(log))
	for i, op := range log {
		ops[i] = EdgeOp{Del: op.del, T: op.t}
	}
	return ops
}

// NewVertices returns the number of vertices staged beyond the view.
func (d *Delta) NewVertices() int { return len(d.names) }

// NewLabels returns the number of labels staged beyond the view.
func (d *Delta) NewLabels() int { return len(d.labels) }

// LookupVertex resolves a vertex name against the view plus the staged
// interns, without creating it.
func (d *Delta) LookupVertex(name string) (VertexID, bool) {
	if id := d.g.Vertex(name); id != NoVertex {
		return id, true
	}
	id, ok := d.nameIDs[name]
	return id, ok
}

// LookupLabel is LookupVertex for labels.
func (d *Delta) LookupLabel(name string) (Label, bool) {
	if l, ok := d.g.LabelByName(name); ok {
		return l, true
	}
	l, ok := d.labelIDs[name]
	return l, ok
}

// Vertex interns a vertex by name, creating it (beyond the view) on
// first use.
func (d *Delta) Vertex(name string) VertexID {
	if id, ok := d.LookupVertex(name); ok {
		return id
	}
	id := VertexID(d.g.NumVertices() + len(d.names))
	d.names = append(d.names, name)
	d.nameIDs[name] = id
	return id
}

// Label interns a label by name. Unlike Builder.Label it returns
// ErrLabelSpace instead of panicking when the single-word label universe
// is full — mutation batches are client input.
func (d *Delta) Label(name string) (Label, error) {
	if l, ok := d.LookupLabel(name); ok {
		return l, nil
	}
	if d.g.NumLabels()+len(d.labels) >= labelset.MaxLabels {
		return 0, fmt.Errorf("%w (adding %q)", ErrLabelSpace, name)
	}
	l := Label(d.g.NumLabels() + len(d.labels))
	d.labels = append(d.labels, name)
	d.labelIDs[name] = l
	return l, nil
}

// numVertices is the staged view's vertex count.
func (d *Delta) numVertices() int { return d.g.NumVertices() + len(d.names) }

// numLabels is the staged view's label count.
func (d *Delta) numLabels() int { return d.g.NumLabels() + len(d.labels) }

// AddEdge stages the insertion of (s, l, t). Parallel edges and
// self-loops are permitted, as in Builder.
func (d *Delta) AddEdge(s VertexID, l Label, t VertexID) error {
	if int(s) >= d.numVertices() || int(t) >= d.numVertices() {
		return fmt.Errorf("%w: (%d, %d, %d)", ErrVertexRange, s, l, t)
	}
	if int(l) >= d.numLabels() {
		return fmt.Errorf("%w: label %d of (%d, %d, %d)", ErrVertexRange, l, s, l, t)
	}
	tr := Triple{Subject: s, Label: l, Object: t}
	d.ops = append(d.ops, deltaOp{t: tr})
	d.counts[tr]++
	return nil
}

// AddEdgeNames interns the endpoint and label names (subject, label,
// object — the same order Builder.AddEdgeNames interns, so replaying one
// script through a Builder or a Delta yields identical IDs) and stages
// the edge.
func (d *Delta) AddEdgeNames(s, label, t string) error {
	sv := d.Vertex(s)
	l, err := d.Label(label)
	if err != nil {
		return err
	}
	return d.AddEdge(sv, l, d.Vertex(t))
}

// DeleteEdge stages the removal of one instance of (s, l, t). It fails
// with ErrEdgeNotFound when the staged view (the underlying view plus
// earlier staged ops) holds no remaining instance.
func (d *Delta) DeleteEdge(s VertexID, l Label, t VertexID) error {
	if int(s) >= d.numVertices() || int(t) >= d.numVertices() || int(l) >= d.numLabels() {
		return fmt.Errorf("%w: (%d, %d, %d)", ErrVertexRange, s, l, t)
	}
	tr := Triple{Subject: s, Label: l, Object: t}
	if d.g.countEdge(s, l, t)+d.counts[tr] <= 0 {
		return fmt.Errorf("%w: (%d, %d, %d)", ErrEdgeNotFound, s, l, t)
	}
	d.ops = append(d.ops, deltaOp{del: true, t: tr})
	d.counts[tr]--
	return nil
}

// Commit freezes the staged batch into a new Graph sharing the view's
// base CSR, with the combined overlay (the view's overlay, if any, plus
// this Delta) rebuilt. The receiver Graph is left untouched; the Delta
// must not be reused. An error is an internal inconsistency (staging
// validates every op), reported rather than swallowed so a corrupted
// overlay can never be published.
func (d *Delta) Commit() (*Graph, error) {
	g := d.g
	if len(d.ops) == 0 && len(d.names) == 0 && len(d.labels) == 0 {
		return g, nil // nothing staged: the view is already the result
	}
	ov := &overlay{
		baseV: len(g.names),
		baseL: len(g.labelNames),
	}
	if old := g.ov; old != nil {
		// Immutable-append: full slice expressions force a copy whenever
		// the old backing array would be shared and overwritten.
		ov.names = append(old.names[:len(old.names):len(old.names)], d.names...)
		ov.labels = append(old.labels[:len(old.labels):len(old.labels)], d.labels...)
		ov.log = append(old.log[:len(old.log):len(old.log)], d.ops...)
	} else {
		ov.names = d.names
		ov.labels = d.labels
		ov.log = d.ops
	}
	ov.nameIDs = make(map[string]VertexID, len(ov.names))
	for i, name := range ov.names {
		ov.nameIDs[name] = VertexID(ov.baseV + i)
	}
	ov.labelIDs = make(map[string]Label, len(ov.labels))
	for i, name := range ov.labels {
		ov.labelIDs[name] = Label(ov.baseL + i)
	}
	for _, op := range ov.log {
		if op.del {
			ov.deleted++
		} else {
			ov.added++
		}
	}
	nV := ov.baseV + len(ov.names)
	var err error
	ov.out, err = buildPatch(ov.log, &g.out, ov.baseV, nV, false)
	if err != nil {
		return nil, err
	}
	ov.in, err = buildPatch(ov.log, &g.in, ov.baseV, nV, true)
	if err != nil {
		return nil, err
	}
	h := *g
	h.ov = ov
	return &h, nil
}

// buildPatch materialises one direction's patch mini-CSR from the full
// overlay log: for every vertex an op touches, its complete merged row
// (base minus deletions plus insertions, (label, head)-sorted).
//
// The log is grouped by vertex with one sort instead of per-vertex maps
// of slices, and every output array is sized before it is filled: the
// patch is rebuilt from the whole log on every commit, so per-vertex
// allocations and growth by doubling would be paid again each time.
func buildPatch(log []deltaOp, base *adjacency, baseV, nV int, inDir bool) (patchAdj, error) {
	type rowOp struct {
		v   VertexID
		e   Edge
		del bool
	}
	ops := make([]rowOp, len(log))
	for i, op := range log {
		ops[i] = rowOp{v: op.t.Subject, e: Edge{To: op.t.Object, Label: op.t.Label}, del: op.del}
		if inDir {
			ops[i].v, ops[i].e.To = op.t.Object, op.t.Subject
		}
	}
	// Only the grouping matters: each row is sorted again below, and a
	// deletion removes one instance of an edge wherever it sits.
	slices.SortFunc(ops, func(a, b rowOp) int { return int(a.v) - int(b.v) })

	nTouched, nEdges := 0, 0
	for i, op := range ops {
		if i == 0 || op.v != ops[i-1].v {
			nTouched++
			if int(op.v) < baseV {
				nEdges += len(base.run(op.v))
			}
		}
		if op.del {
			nEdges--
		} else {
			nEdges++
		}
	}
	p := patchAdj{
		touched: make([]uint64, (nV+63)/64),
		slot:    make(map[VertexID]uint32, nTouched),
	}
	p.a.off = make([]uint32, 1, nTouched+1)
	p.a.runOff = make([]uint32, 1, nTouched+1)
	p.a.edges = make([]Edge, 0, max(nEdges, 0))
	var row []Edge
	for i := 0; i < len(ops); {
		v := ops[i].v
		j := i
		for j < len(ops) && ops[j].v == v {
			j++
		}
		group := ops[i:j]
		i = j
		p.touched[uint(v)>>6] |= 1 << (uint(v) & 63)
		p.slot[v] = uint32(len(p.a.off) - 1)

		row = row[:0]
		if int(v) < baseV {
			row = append(row, base.run(v)...)
		}
		for _, op := range group {
			if !op.del {
				row = append(row, op.e)
			}
		}
		slices.SortFunc(row, func(a, b Edge) int {
			if a.Label != b.Label {
				return int(a.Label) - int(b.Label)
			}
			return int(a.To) - int(b.To)
		})
		for _, op := range group {
			if !op.del {
				continue
			}
			del := op.e
			k := sort.Search(len(row), func(k int) bool {
				e := row[k]
				return e.Label > del.Label || e.Label == del.Label && e.To >= del.To
			})
			if k >= len(row) || row[k] != del {
				return patchAdj{}, fmt.Errorf("%w: overlay rebuild lost (%v, %v)", ErrEdgeNotFound, v, del)
			}
			row = append(row[:k], row[k+1:]...)
		}

		for k, e := range row {
			if k == 0 || e.Label != row[k-1].Label {
				p.a.runStart = append(p.a.runStart, uint32(len(p.a.edges)+k))
				p.a.runLabel = append(p.a.runLabel, e.Label)
			}
		}
		p.a.edges = append(p.a.edges, row...)
		p.a.off = append(p.a.off, uint32(len(p.a.edges)))
		p.a.runOff = append(p.a.runOff, uint32(len(p.a.runStart)))
	}
	return p, nil
}

// HasOverlay reports whether g carries uncompacted mutations.
func (g *Graph) HasOverlay() bool { return g.ov != nil }

// OverlaySize returns the number of edge mutations accumulated in the
// overlay since the base CSR was built (0 without an overlay). The
// engine's compaction threshold reads it.
func (g *Graph) OverlaySize() int {
	if g.ov == nil {
		return 0
	}
	return len(g.ov.log)
}

// Compact folds the overlay into a fresh base CSR. The result is
// observationally identical to g — same dictionaries in the same ID
// order, same ordered Triples, same schema — with no overlay, so every
// read is a plain base-CSR access again. Without an overlay it returns g
// itself.
func (g *Graph) Compact() *Graph {
	if g.ov == nil {
		return g
	}
	b := NewBuilder()
	b.schema = g.schema
	for l := 0; l < g.NumLabels(); l++ {
		b.Label(g.LabelName(Label(l)))
	}
	for v := 0; v < g.NumVertices(); v++ {
		b.Vertex(g.VertexName(VertexID(v)))
	}
	g.Triples(func(t Triple) bool {
		b.AddEdge(t.Subject, t.Label, t.Object)
		return true
	})
	return b.Build()
}

// Cut is one point of a view's overlay history: the overlay op count
// and the dictionary sizes a commit left behind (see ReplayOnto).
type Cut struct{ Ops, Vertices, Labels int }

// Cut returns g's current point in its overlay history.
func (g *Graph) Cut() Cut {
	return Cut{Ops: g.OverlaySize(), Vertices: g.NumVertices(), Labels: g.NumLabels()}
}

// ReplayOnto re-applies cur's overlay ops log[from:to.Ops] onto base,
// after interning cur's dictionary entries from base's sizes up to
// to's; base must be an observationally identical rebuild of cur's
// state at from ops, and IDs are stable across the replay. A seal
// catches up with from = its fold's op count and to = cur.Cut(), and
// rebuilds an earlier epoch's state with from = 0 and that epoch's cut.
func ReplayOnto(base, cur *Graph, from int, to Cut) (*Graph, error) {
	if b, c := base.Cut(), cur.Cut(); from < 0 || from > to.Ops || to.Ops > c.Ops ||
		to.Vertices < b.Vertices || to.Vertices > c.Vertices || to.Labels < b.Labels || to.Labels > c.Labels {
		return nil, fmt.Errorf("graph: replay bounds: from %d to %+v, base at %+v, cur at %+v", from, to, b, c)
	}
	d := NewDelta(base)
	for l := base.NumLabels(); l < to.Labels; l++ {
		if _, err := d.Label(cur.LabelName(Label(l))); err != nil {
			return nil, err
		}
	}
	for v := base.NumVertices(); v < to.Vertices; v++ {
		d.Vertex(cur.VertexName(VertexID(v)))
	}
	var log []deltaOp
	if cur.ov != nil {
		log = cur.ov.log[from:to.Ops]
	}
	for _, op := range log {
		var err error
		if op.del {
			err = d.DeleteEdge(op.t.Subject, op.t.Label, op.t.Object)
		} else {
			err = d.AddEdge(op.t.Subject, op.t.Label, op.t.Object)
		}
		if err != nil {
			return nil, fmt.Errorf("graph: overlay replay: %w", err)
		}
	}
	return d.Commit()
}

// countEdge returns the multiplicity of (s, l, t) in the view. Vertices
// beyond the view (a Delta's freshly staged ones) have no edges yet.
func (g *Graph) countEdge(s VertexID, l Label, t VertexID) int {
	if int(s) >= g.NumVertices() {
		return 0
	}
	es := g.Out(s)
	lo := sort.Search(len(es), func(i int) bool {
		e := es[i]
		return e.Label > l || e.Label == l && e.To >= t
	})
	hi := lo
	for hi < len(es) && es[hi].Label == l && es[hi].To == t {
		hi++
	}
	return hi - lo
}
