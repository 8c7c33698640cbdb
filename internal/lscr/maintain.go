package lscr

import (
	"fmt"
	"slices"

	"lscr/internal/graph"
)

// Incremental maintenance of the local landmark index under live
// mutations.
//
// The correctness of everything here rests on a locality property of
// Algorithm 3: landmark u's entries (II[u], EIT[u], D[u]) are computed
// by a BFS that expands only vertices of F(u), so they depend exactly on
// the edges whose SOURCE lies in F(u). An edge operation (s, l, t)
// therefore affects at most ONE landmark — Region(s) — and operations
// whose source has no region (including vertices interned after the
// build) affect none.
//
// Maintenance is one rule: every edge op, insert or delete, marks
// Region(s)'s landmark dirty. Entries are never rewritten between
// builds. A dirty landmark keeps its entries, which may now miss
// reachability an insert added or claim reachability a delete removed,
// so INS excludes it from Check/Cut/Push pruning; every clean landmark
// stays exact, because no other landmark's BFS traverses an
// F(Region(s))-sourced edge. A freshly built index has no dirty
// landmark. A seal publishes its rebuild with the landmarks of the
// batches replayed onto it (those that landed mid-rebuild) dirty.

// MaintBatch reports what one ApplyMutations call did, for the engine's
// cumulative maintenance counters.
type MaintBatch struct {
	// EntriesAdded is always 0: maintenance never adds entries. It
	// remains only because the benchmark's trace still reports it
	// (lscr.entries_added).
	EntriesAdded int
	// LandmarksInvalidated counts landmarks newly marked dirty by this
	// batch.
	LandmarksInvalidated int
}

// ApplyMutations derives the index for g2, the graph view produced by
// committing the edge operations ops against idx.Graph(): a copy of the
// index re-bound to g2 that shares every per-landmark entry with the
// receiver and marks dirty the landmark owning each op's source region.
// The receiver is never modified — callers holding it keep a consistent
// (graph, index) pair. The second result reports what maintenance was
// done.
//
// ops must be the batch's validated op stream (Delta.EdgeOps), and g2
// the Commit result. Dictionary-only batches (ops empty) yield an index
// that is simply re-bound to g2.
func (idx *LocalIndex) ApplyMutations(g2 *graph.Graph, ops []graph.EdgeOp) (*LocalIndex, MaintBatch) {
	d := *idx
	d.g = g2
	d.dirty = slices.Clone(idx.dirty)
	var mb MaintBatch
	for _, op := range ops {
		a := idx.Region(op.T.Subject)
		if a == graph.NoVertex {
			continue
		}
		if d.dirty == nil {
			d.dirty = make([]bool, len(d.landmarks))
		}
		if li := idx.lmIdx[a]; !d.dirty[li] {
			d.dirty[li] = true
			mb.LandmarksInvalidated++
		}
	}
	return &d, mb
}

// RebuildFrozen builds, from scratch on g, the index ApplyMutations
// should have maintained: the same landmark set and frozen region
// assignment, every clean landmark's entries recomputed by the full
// LocalFullIndex pass over g, and every dirty landmark's stale entries
// (and dirty flag) carried over verbatim. It is the maintenance oracle
// of the equivalence tier and the fuzz target: if every batch dirtied
// each landmark whose entries it could change, so that every clean
// landmark's unchanged entries are still exact,
// idx.EqualStructure(idx.RebuildFrozen(idx.Graph())) is nil.
func (idx *LocalIndex) RebuildFrozen(g *graph.Graph) *LocalIndex {
	o := &LocalIndex{
		g:          g,
		landmarks:  idx.landmarks,
		isLandmark: idx.isLandmark,
		af:         idx.af,
		lmIdx:      idx.lmIdx,
		iiSorted:   make([][]iiEntry, len(idx.landmarks)),
		eitSorted:  make([][]eitEntry, len(idx.landmarks)),
		drows:      make([][]dEntry, len(idx.landmarks)),
	}
	if idx.dirty != nil {
		o.dirty = slices.Clone(idx.dirty)
	}
	var sc liScratch
	for li, u := range o.landmarks {
		if o.dirty != nil && o.dirty[li] {
			o.iiSorted[li] = idx.iiSorted[li]
			o.eitSorted[li] = idx.eitSorted[li]
			o.drows[li] = idx.drows[li]
			continue
		}
		o.localFullIndex(u, &sc)
	}
	return o
}

// EqualStructure compares the complete materialised structure of two
// indexes — landmarks, regions, the sorted II/EIT enumeration orders
// that drive INS's marking sequence, D rows and dirty flags — and
// returns a description of the first difference, or nil when they are
// structurally identical.
func (idx *LocalIndex) EqualStructure(o *LocalIndex) error {
	if !slices.Equal(idx.landmarks, o.landmarks) {
		return fmt.Errorf("landmark sets differ")
	}
	if !slices.Equal(idx.af, o.af) {
		return fmt.Errorf("region assignments differ")
	}
	for li, u := range idx.landmarks {
		if a, b := idx.Dirty(u), o.Dirty(u); a != b {
			return fmt.Errorf("landmark %d: dirty %v vs %v", u, a, b)
		}
		ai, bi := idx.iiSorted[li], o.iiSorted[li]
		if len(ai) != len(bi) {
			return fmt.Errorf("landmark %d: II has %d vs %d vertices", u, len(ai), len(bi))
		}
		for i := range ai {
			if ai[i].v != bi[i].v {
				return fmt.Errorf("landmark %d: II order differs at %d: %d vs %d", u, i, ai[i].v, bi[i].v)
			}
			if !ai[i].cms.Equal(bi[i].cms) {
				return fmt.Errorf("landmark %d: II[%d] = %v vs %v", u, ai[i].v, ai[i].cms, bi[i].cms)
			}
		}
		ae, be := idx.eitSorted[li], o.eitSorted[li]
		if len(ae) != len(be) {
			return fmt.Errorf("landmark %d: EIT has %d vs %d keys", u, len(ae), len(be))
		}
		for i := range ae {
			if ae[i].key != be[i].key {
				return fmt.Errorf("landmark %d: EIT key order differs at %d: %v vs %v", u, i, ae[i].key, be[i].key)
			}
			if !slices.Equal(ae[i].ws, be[i].ws) {
				return fmt.Errorf("landmark %d: EIT[%v] = %v vs %v", u, ae[i].key, ae[i].ws, be[i].ws)
			}
		}
		if !slices.Equal(idx.drows[li], o.drows[li]) {
			return fmt.Errorf("landmark %d: D rows differ", u)
		}
	}
	return nil
}
