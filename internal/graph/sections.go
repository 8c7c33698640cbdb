package graph

import (
	"errors"
	"fmt"
)

// ErrCorrupt reports untrusted input (an index payload, segment or WAL
// stream) that is truncated, malformed or hostile. Every decoder in the
// persistence stack wraps it, so callers can classify any bad-bytes
// failure with one errors.Is regardless of which layer noticed first.
var ErrCorrupt = errors.New("graph: corrupt or truncated input")

// Section views: the raw flat arrays behind an overlay-free Graph,
// exposed so the segment layer (internal/segment) can write them to disk
// as aligned little-endian sections and reassemble a Graph directly over
// mmap'd bytes without re-deriving anything. The views alias internal
// storage and must be treated as read-only.

// AdjView is the raw CSR of one adjacency direction: the edges of vertex
// v occupy Edges[Off[v]:Off[v+1]] and its label runs occupy
// RunStart/RunLabel[RunOff[v]:RunOff[v+1]] — exactly the layout
// documented on the unexported adjacency struct.
type AdjView struct {
	Edges    []Edge
	Off      []uint32 // len |V|+1
	RunStart []uint32
	RunLabel []Label
	RunOff   []uint32 // len |V|+1
}

// BaseViews returns the raw CSR arrays of both directions. It reports
// ok=false for an overlay view (whose merged state is not a pair of flat
// arrays); callers persist a compacted graph.
func (g *Graph) BaseViews() (out, in AdjView, ok bool) {
	if g.ov != nil {
		return AdjView{}, AdjView{}, false
	}
	return adjView(&g.out), adjView(&g.in), true
}

func adjView(a *adjacency) AdjView {
	return AdjView{
		Edges:    a.edges,
		Off:      a.off,
		RunStart: a.runStart,
		RunLabel: a.runLabel,
		RunOff:   a.runOff,
	}
}

// VertexNames returns the base vertex dictionary, index = VertexID. Only
// valid for an overlay-free graph (BaseViews gatekeeps).
func (g *Graph) VertexNames() []string { return g.names }

// LabelNames returns the base label dictionary, index = Label.
func (g *Graph) LabelNames() []string { return g.labelNames }

// Validate checks the structural invariants every traversal accessor
// relies on, so a Graph assembled from untrusted bytes (a corrupt or
// hostile segment that happened to pass its checksums) can never index
// out of bounds or slice backwards: offset arrays of the right length,
// monotone and in range; every run inside its vertex's edge range; every
// edge's head and label in range; each vertex's run sorted by
// (label, head) with the run index agreeing label-for-label. The cost is
// one linear pass over the arrays.
func (v AdjView) Validate(nV, nLabels int) error {
	nE := len(v.Edges)
	nR := len(v.RunStart)
	if len(v.Off) != nV+1 || len(v.RunOff) != nV+1 {
		return fmt.Errorf("%w: offset array length", ErrCorrupt)
	}
	if len(v.RunLabel) != nR {
		return fmt.Errorf("%w: run index length", ErrCorrupt)
	}
	if v.Off[0] != 0 || v.Off[nV] != uint32(nE) || v.RunOff[0] != 0 || v.RunOff[nV] != uint32(nR) {
		return fmt.Errorf("%w: offset bounds", ErrCorrupt)
	}
	for i := 0; i < nV; i++ {
		if v.Off[i] > v.Off[i+1] || v.RunOff[i] > v.RunOff[i+1] {
			return fmt.Errorf("%w: non-monotone offsets at vertex %d", ErrCorrupt, i)
		}
	}
	for i := 0; i < nV; i++ {
		lo, hi := v.Off[i], v.Off[i+1]
		rlo, rhi := v.RunOff[i], v.RunOff[i+1]
		if hi > lo && rhi == rlo {
			return fmt.Errorf("%w: vertex %d has edges but no runs", ErrCorrupt, i)
		}
		for ri := rlo; ri < rhi; ri++ {
			start := v.RunStart[ri]
			end := hi
			if ri+1 < rhi {
				end = v.RunStart[ri+1]
			}
			if start < lo || start > end || end > hi {
				return fmt.Errorf("%w: run %d outside vertex %d", ErrCorrupt, ri, i)
			}
			if ri == rlo && start != lo {
				return fmt.Errorf("%w: first run of vertex %d misaligned", ErrCorrupt, i)
			}
			label := v.RunLabel[ri]
			if int(label) >= nLabels {
				return fmt.Errorf("%w: run label out of range", ErrCorrupt)
			}
			if ri > rlo && label <= v.RunLabel[ri-1] {
				return fmt.Errorf("%w: run labels not ascending at vertex %d", ErrCorrupt, i)
			}
			for j := start; j < end; j++ {
				e := v.Edges[j]
				if uint32(e.To) >= uint32(nV) {
					return fmt.Errorf("%w: edge head out of range", ErrCorrupt)
				}
				if e.Label != label {
					return fmt.Errorf("%w: edge label disagrees with run", ErrCorrupt)
				}
				if j > start && v.Edges[j-1].To > e.To {
					return fmt.Errorf("%w: edges not sorted at vertex %d", ErrCorrupt, i)
				}
			}
		}
	}
	return nil
}

// FromParts assembles an immutable base-CSR Graph directly over the
// given arrays — the zero-copy open path. The slices (and the strings in
// the dictionaries) are aliased, not copied, so they may point into
// mmap'd storage; they must never be mutated afterwards. Both views are
// validated (see AdjView.Validate) and must describe the same edge
// multiset size.
//
// nameOrder, when non-nil, is the vertex ids permuted into strictly
// ascending name order (a segment's name-index section): Vertex then
// binary-searches it instead of a hash map, so assembling the graph
// allocates no per-name storage at all. It is validated here — in-range,
// strictly ascending — which both proves it a permutation and rejects
// duplicate names. A nil nameOrder falls back to building the map.
func FromParts(names, labelNames []string, nameOrder []uint32, out, in AdjView) (*Graph, error) {
	nV, nL := len(names), len(labelNames)
	if err := out.Validate(nV, nL); err != nil {
		return nil, fmt.Errorf("out adjacency: %w", err)
	}
	if err := in.Validate(nV, nL); err != nil {
		return nil, fmt.Errorf("in adjacency: %w", err)
	}
	if len(out.Edges) != len(in.Edges) {
		return nil, fmt.Errorf("%w: direction edge counts disagree (%d vs %d)", ErrCorrupt, len(out.Edges), len(in.Edges))
	}
	g := &Graph{
		names:      names,
		labelNames: labelNames,
		numEdges:   len(out.Edges),
		labelIDs:   make(map[string]Label, nL),
	}
	if nameOrder != nil {
		if len(nameOrder) != nV {
			return nil, fmt.Errorf("%w: name order holds %d entries for %d vertices", ErrCorrupt, len(nameOrder), nV)
		}
		for i, p := range nameOrder {
			if int(p) >= nV {
				return nil, fmt.Errorf("%w: name order entry out of range", ErrCorrupt)
			}
			// Strictly ascending + in-range + full length ⇒ a permutation
			// with no duplicate names: a repeated id or name would force
			// equality between sorted neighbours.
			if i > 0 && names[nameOrder[i-1]] >= names[p] {
				return nil, fmt.Errorf("%w: name order not strictly ascending at %d", ErrCorrupt, i)
			}
		}
		g.nameOrder = nameOrder
	} else {
		// Blind inserts; a collision shows up as a short map, and the
		// failure path (cold) can still name the culprit: a duplicate's
		// first occurrence maps to the later index.
		g.vertexIDs = make(map[string]VertexID, nV)
		for i, name := range names {
			g.vertexIDs[name] = VertexID(i)
		}
		if len(g.vertexIDs) != nV {
			for i, name := range names {
				if g.vertexIDs[name] != VertexID(i) {
					return nil, fmt.Errorf("%w: duplicate vertex name %q", ErrCorrupt, name)
				}
			}
		}
	}
	for i, name := range labelNames {
		g.labelIDs[name] = Label(i)
	}
	if len(g.labelIDs) != nL {
		for i, name := range labelNames {
			if g.labelIDs[name] != Label(i) {
				return nil, fmt.Errorf("%w: duplicate label name %q", ErrCorrupt, name)
			}
		}
	}
	g.out = viewAdj(out)
	g.in = viewAdj(in)
	return g, nil
}

func viewAdj(v AdjView) adjacency {
	return adjacency{
		edges:    v.Edges,
		off:      v.Off,
		runStart: v.RunStart,
		runLabel: v.RunLabel,
		runOff:   v.RunOff,
	}
}
