package graph

import (
	"errors"
	"fmt"
	"maps"
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
// index — the exact shape of a base CSR row, held as a one-row adjacency
// of its own. The rows sit in a copy-on-write radix array keyed by
// VertexID: a spine of 256-way leaves, where a nil leaf or a nil entry
// marks an untouched vertex. OutRuns/InRuns and friends answer from the
// patch row when the vertex is touched and from the base row otherwise,
// so the hot loops keep their run-scan shape: merged label runs,
// deletions already masked, zero per-edge branching. An untouched read
// costs one nil check (no overlay) or one or two nil checks on the spine.
//
// The overlay is persistent by path copying (Driscoll, Sarnak, Sleator &
// Tarjan, "Making Data Structures Persistent", JCSS 1989). Commit copies
// the spine and only the leaves its batch touches, and re-merges only the
// batch's vertices, each from its previous overlay row or else its base
// row; every other row and leaf is shared with the view it extends. The
// op log is append-only in chunks, so a commit copies at most the partial
// tail chunk, and the dictionaries are shared when a batch interns
// nothing. A commit's cost is thus proportional to its batch and the rows
// the batch touches, not to the overlay accumulated before it.
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

// overlay is the immutable delta layered over a base CSR. Nothing
// reachable from a published overlay is ever written again; successive
// commits build new overlays that share its unchanged parts.
type overlay struct {
	baseV int // vertex-dictionary size of the base
	baseL int // label-dictionary size of the base

	names    []string // new vertices: VertexID = baseV + position
	nameIDs  map[string]VertexID
	labels   []string // new labels: Label = baseL + position
	labelIDs map[string]Label

	log     opLog
	added   int // edge insertions in log
	deleted int // edge deletions in log

	out, in patchAdj
}

// logChunk is the number of ops in each full chunk of an opLog.
const logChunk = 256

// opLog is the overlay's append-only op log: full chunks of logChunk
// ops, shared by every later overlay, then a partial tail that each
// commit copies before appending to it. Two commits staged on one view
// therefore never write the same backing array.
type opLog struct {
	full [][]deltaOp
	tail []deltaOp // len < logChunk
}

// len returns the number of logged ops.
func (l *opLog) len() int { return len(l.full)*logChunk + len(l.tail) }

// at returns op i of the log.
func (l *opLog) at(i int) deltaOp {
	if c := i / logChunk; c < len(l.full) {
		return l.full[c][i%logChunk]
	}
	return l.tail[i-len(l.full)*logChunk]
}

// appended returns the log extended by ops; l itself is unchanged.
func (l opLog) appended(ops []deltaOp) opLog {
	if len(ops) == 0 {
		return l
	}
	tail := make([]deltaOp, 0, len(l.tail)+len(ops))
	tail = append(append(tail, l.tail...), ops...)
	for len(tail) >= logChunk {
		l.full = append(l.full[:len(l.full):len(l.full)], tail[:logChunk:logChunk])
		tail = tail[logChunk:]
	}
	l.tail = tail
	return l
}

// Leaf geometry of patchAdj's radix array.
const (
	leafBits = 8
	leafSize = 1 << leafBits
)

// rowLeaf holds the patch rows of leafSize consecutive vertex IDs; a nil
// entry is an untouched vertex.
type rowLeaf [leafSize]*adjacency

// patchAdj is one direction's patch rows as a copy-on-write radix array:
// spine[i] covers vertices [i*leafSize, (i+1)*leafSize), and a nil leaf
// (or a vertex beyond the spine) is untouched. Each row is a one-row
// adjacency (off = [0,n], runOff = [0,r]), so it answers run(0), runs(0)
// and with(0, l) exactly as a base row does.
type patchAdj struct {
	spine []*rowLeaf
}

// get returns v's patch row, or nil when no mutation touched v.
func (p *patchAdj) get(v VertexID) *adjacency {
	if i := uint(v) >> leafBits; i < uint(len(p.spine)) {
		if l := p.spine[i]; l != nil {
			return l[v&(leafSize-1)]
		}
	}
	return nil
}

// row returns the merged edge row of v, falling back to the base row for
// untouched base vertices; untouched new vertices have no edges.
func (p *patchAdj) row(v VertexID, base *adjacency, baseV int) []Edge {
	if r := p.get(v); r != nil {
		return r.run(0)
	}
	if int(v) < baseV {
		return base.run(v)
	}
	return nil
}

// runs is row as the raw label-run view.
func (p *patchAdj) runs(v VertexID, base *adjacency, baseV int) EdgeRuns {
	if r := p.get(v); r != nil {
		return r.runs(0)
	}
	if int(v) < baseV {
		return base.runs(v)
	}
	return EdgeRuns{}
}

// with is row restricted to one exact label.
func (p *patchAdj) with(v VertexID, l Label, base *adjacency, baseV int) []Edge {
	if r := p.get(v); r != nil {
		return r.with(0, l)
	}
	if int(v) < baseV {
		return base.with(v, l)
	}
	return nil
}

// rowOp is one logged op as seen from the vertex whose row it changes.
type rowOp struct {
	v   VertexID
	del bool
	e   Edge
}

// cmpEdge orders edges by (label, head), the order of every row.
func cmpEdge(a, b Edge) int {
	if a.Label != b.Label {
		return int(a.Label) - int(b.Label)
	}
	return int(a.To) - int(b.To)
}

// extend returns p with the rows of the vertices ops touch re-merged:
// each from its row in p, or else its base row, plus the insertions and
// minus the deletions. It copies the spine and the touched leaves and
// shares everything else with p, which is unchanged.
func (p patchAdj) extend(ops []deltaOp, base *adjacency, baseV int, inDir bool) (patchAdj, error) {
	if len(ops) == 0 {
		return p, nil
	}
	rops := make([]rowOp, len(ops))
	for i, op := range ops {
		rops[i] = rowOp{v: op.t.Subject, del: op.del, e: Edge{To: op.t.Object, Label: op.t.Label}}
		if inDir {
			rops[i].v, rops[i].e.To = op.t.Object, op.t.Subject
		}
	}
	// Group by vertex, insertions before deletions, each part in row
	// order, so mergeRow is one linear pass. Equal edges are
	// indistinguishable, so the order among them does not matter.
	slices.SortFunc(rops, func(a, b rowOp) int {
		if a.v != b.v {
			return int(a.v) - int(b.v)
		}
		if a.del != b.del {
			if a.del {
				return 1
			}
			return -1
		}
		return cmpEdge(a.e, b.e)
	})
	spine := make([]*rowLeaf, max(len(p.spine), int(rops[len(rops)-1].v>>leafBits)+1))
	copy(spine, p.spine)
	owned := -1 // the leaf this commit copied last; rops visit each leaf in one stretch
	for i := 0; i < len(rops); {
		v := rops[i].v
		j := i
		for j < len(rops) && rops[j].v == v {
			j++
		}
		k := i
		for k < j && !rops[k].del {
			k++
		}
		prev := p.row(v, base, baseV)
		r, err := mergeRow(prev, rops[i:k], rops[k:j])
		if err != nil {
			return patchAdj{}, fmt.Errorf("%w: overlay merge of vertex %d: %v", ErrEdgeNotFound, v, err)
		}
		li := int(v >> leafBits)
		if li != owned {
			leaf := new(rowLeaf)
			if spine[li] != nil {
				*leaf = *spine[li]
			}
			spine[li], owned = leaf, li
		}
		spine[li][v&(leafSize-1)] = r
		i = j
	}
	return patchAdj{spine: spine}, nil
}

// mergeRow returns prev plus ins minus dels as a one-row adjacency with
// its label-run index. prev, ins and dels are each (label, head)-sorted;
// a deletion removes one instance, and one with no instance left is an
// error.
func mergeRow(prev []Edge, ins, dels []rowOp) (*adjacency, error) {
	edges := make([]Edge, 0, max(len(prev)+len(ins)-len(dels), 0))
	i, j, k := 0, 0, 0
	for i < len(prev) || j < len(ins) {
		var e Edge
		if j == len(ins) || i < len(prev) && cmpEdge(prev[i], ins[j].e) <= 0 {
			e = prev[i]
			i++
		} else {
			e = ins[j].e
			j++
		}
		if k < len(dels) {
			if c := cmpEdge(dels[k].e, e); c == 0 {
				k++
				continue
			} else if c < 0 {
				break
			}
		}
		edges = append(edges, e)
	}
	if k < len(dels) {
		return nil, fmt.Errorf("no instance of %v left", dels[k].e)
	}
	runs := 0
	for x := range edges {
		if x == 0 || edges[x].Label != edges[x-1].Label {
			runs++
		}
	}
	// off, runOff and runStart share one allocation.
	idx := make([]uint32, 4, 4+runs)
	idx[1], idx[3] = uint32(len(edges)), uint32(runs)
	a := &adjacency{
		edges:    edges,
		off:      idx[0:2:2],
		runOff:   idx[2:4:4],
		runStart: idx[4:4],
		runLabel: make([]Label, 0, runs),
	}
	for x, e := range edges {
		if x == 0 || e.Label != edges[x-1].Label {
			a.runStart = append(a.runStart, uint32(x))
			a.runLabel = append(a.runLabel, e.Label)
		}
	}
	return a, nil
}

// degenerate returns p with every row's run index replaced by one run per
// edge (see withoutLabelIndex); p is unchanged.
func (p patchAdj) degenerate() patchAdj {
	q := patchAdj{spine: make([]*rowLeaf, len(p.spine))}
	for i, leaf := range p.spine {
		if leaf == nil {
			continue
		}
		q.spine[i] = new(rowLeaf)
		for j, r := range leaf {
			if r != nil {
				d := degenerateRuns(*r)
				q.spine[i][j] = &d
			}
		}
	}
	return q
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
	if g.ov == nil || from >= g.ov.log.len() {
		return nil
	}
	ops := make([]EdgeOp, g.ov.log.len()-from)
	for i := range ops {
		op := g.ov.log.at(from + i)
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
// base CSR, with the view's overlay (if any) extended by this Delta:
// only the rows the batch touches are re-merged, and every other part of
// the view's overlay is shared. The receiver Graph is left untouched;
// the Delta must not be reused. An error is an internal inconsistency
// (staging validates every op), reported rather than swallowed so a
// corrupted overlay can never be published.
func (d *Delta) Commit() (*Graph, error) {
	g := d.g
	if len(d.ops) == 0 && len(d.names) == 0 && len(d.labels) == 0 {
		return g, nil // nothing staged: the view is already the result
	}
	ov := &overlay{baseV: len(g.names), baseL: len(g.labelNames)}
	if g.ov != nil {
		*ov = *g.ov
	}
	if len(d.names) > 0 {
		// Immutable-append: the full slice expression forces a copy
		// whenever the old backing array would be shared and overwritten.
		ov.names = append(ov.names[:len(ov.names):len(ov.names)], d.names...)
		ov.nameIDs = extended(ov.nameIDs, d.nameIDs)
	}
	if len(d.labels) > 0 {
		ov.labels = append(ov.labels[:len(ov.labels):len(ov.labels)], d.labels...)
		ov.labelIDs = extended(ov.labelIDs, d.labelIDs)
	}
	ov.log = ov.log.appended(d.ops)
	for _, op := range d.ops {
		if op.del {
			ov.deleted++
		} else {
			ov.added++
		}
	}
	var err error
	if ov.out, err = ov.out.extend(d.ops, &g.out, ov.baseV, false); err != nil {
		return nil, err
	}
	if ov.in, err = ov.in.extend(d.ops, &g.in, ov.baseV, true); err != nil {
		return nil, err
	}
	h := *g
	h.ov = ov
	return &h, nil
}

// extended returns a map holding m's entries plus add's, leaving m
// unchanged; an empty m yields add itself.
func extended[V any](m, add map[string]V) map[string]V {
	if len(m) == 0 {
		return add
	}
	out := make(map[string]V, len(m)+len(add))
	maps.Copy(out, m)
	maps.Copy(out, add)
	return out
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
	return g.ov.log.len()
}

// Compact folds the overlay into a fresh base CSR. The result is
// observationally identical to g — same dictionaries in the same ID
// order, same ordered Triples — with no overlay, so every
// read is a plain base-CSR access again. Without an overlay it returns g
// itself.
func (g *Graph) Compact() *Graph {
	if g.ov == nil {
		return g
	}
	b := NewBuilder()
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
	for i := from; i < to.Ops; i++ {
		op := cur.ov.log.at(i)
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
