package lscr

import (
	"fmt"
	"slices"
	"sort"

	"lscr/internal/graph"
	"lscr/internal/labelset"
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
// Insertions extend entries monotonically: the CMS closure of Algorithm
// 3 is the least fixpoint of "II[u][v] covers L and (v -l-> v') exists
// implies II[u][v'] (or EI[u][v']) covers L+l", and a least fixpoint of
// a monotone operator over a grown graph is reached from ANY sound
// pre-fixpoint — in particular from the pre-batch entries. So
// extendLandmark seeds the standard BFS with the inserted edges applied
// to the pre-batch label sets of their sources and runs it to fixpoint
// over the post-batch graph; by minimality of CMS antichains the result
// is identical to rebuilding from scratch (RebuildFrozen is the oracle
// the proof tier and fuzz target compare against).
//
// Deletions are not monotone — entries derived through a removed edge
// would have to be retracted — so a deletion just marks Region(s) dirty.
// A dirty landmark keeps its (now possibly over-approximate) entries but
// is excluded from INS pruning and from further propagation; every other
// landmark remains exact, because no other landmark's BFS can traverse
// an F(Region(s))-sourced edge. Compaction rebuilds the index from
// scratch and clears all dirtiness.

// MaintBatch reports what one ApplyMutations call did, for the engine's
// cumulative maintenance counters.
type MaintBatch struct {
	// LandmarksExtended counts landmarks whose entries were extended by
	// insert propagation (including extensions that added no new sets).
	LandmarksExtended int
	// EntriesAdded counts minimal label sets accepted into II/EI during
	// propagation.
	EntriesAdded int
	// LandmarksInvalidated counts landmarks newly marked dirty by
	// deletions in this batch.
	LandmarksInvalidated int
}

// ApplyMutations derives the index for g2, the graph view produced by
// committing the edge operations ops against the view this index is
// exact for. The receiver is never modified — callers holding it keep a
// consistent (graph, index) pair — and the derived index shares every
// per-landmark structure the batch did not touch. The second result
// reports what maintenance was done.
//
// idx.Graph() must be the pre-batch view; ops must be the batch's
// validated op stream in commit order (Delta.EdgeOps), and g2 the Commit
// result. Dictionary-only batches (ops empty) yield a derived index that
// is simply re-bound to g2.
func (idx *LocalIndex) ApplyMutations(g2 *graph.Graph, ops []graph.EdgeOp) (*LocalIndex, MaintBatch) {
	d := idx.derive(g2)
	var mb MaintBatch

	// Group the batch by the single landmark each op can affect. Within
	// one batch, a deletion invalidates its landmark outright: entries
	// may depend on the removed edge no matter where in the batch it
	// sits, and propagation over g2 (which has the deletion applied)
	// cannot retract them.
	type lwork struct {
		inserts []graph.Triple
		invalid bool
	}
	var affected map[int32]*lwork
	for _, op := range ops {
		a := idx.Region(op.T.Subject)
		if a == graph.NoVertex {
			continue
		}
		li := idx.lmIdx[a]
		if affected == nil {
			affected = make(map[int32]*lwork)
		}
		w := affected[li]
		if w == nil {
			w = &lwork{}
			affected[li] = w
		}
		if op.Del {
			w.invalid = true
		} else if !w.invalid {
			w.inserts = append(w.inserts, op.T)
		}
	}
	if affected == nil {
		return d, mb
	}

	lis := make([]int32, 0, len(affected))
	for li := range affected {
		lis = append(lis, li)
	}
	slices.Sort(lis)
	extended := false
	for _, li := range lis {
		w := affected[li]
		if w.invalid {
			if d.markDirty(li) {
				mb.LandmarksInvalidated++
			}
			continue
		}
		if d.dirty != nil && d.dirty[li] {
			continue // already stale; stays dirty until compaction
		}
		if !extended {
			// Copy-on-write: the first extension gives d its own outer
			// per-landmark slices, so extendLandmark can swap one
			// landmark's slots while the entry arrays stay shared.
			d.iiSorted = slices.Clone(d.iiSorted)
			d.eitSorted = slices.Clone(d.eitSorted)
			d.drows = slices.Clone(d.drows)
			extended = true
		}
		mb.EntriesAdded += d.extendLandmark(li, w.inserts)
		mb.LandmarksExtended++
	}
	return d, mb
}

// derive returns a child of idx bound to g2 that shares every
// per-landmark slice with it; ApplyMutations clones the outer slices
// only when a landmark is extended. The dirty flags are cloned here, so
// markDirty can set one.
func (idx *LocalIndex) derive(g2 *graph.Graph) *LocalIndex {
	d := &LocalIndex{
		g:          g2,
		landmarks:  idx.landmarks,
		isLandmark: idx.isLandmark,
		af:         idx.af,
		lmIdx:      idx.lmIdx,
		iiSorted:   idx.iiSorted,
		eitSorted:  idx.eitSorted,
		drows:      idx.drows,
	}
	if idx.dirty != nil {
		d.dirty = slices.Clone(idx.dirty)
	}
	return d
}

// markDirty invalidates landmark li, reporting whether it was clean.
func (idx *LocalIndex) markDirty(li int32) bool {
	if idx.dirty == nil {
		idx.dirty = make([]bool, len(idx.landmarks))
	}
	if idx.dirty[li] {
		return false
	}
	idx.dirty[li] = true
	return true
}

// extendLandmark folds a batch of inserted edges into landmark li's
// entries by monotone propagation and returns the number of minimal
// label sets accepted. The landmark's entries are deep-copied into
// scratch maps first (EI is reconstructed from EIT, its exact
// reversal), then the LocalFullIndex BFS runs over the post-batch graph
// seeded with the new edges applied to the pre-batch label sets of
// their sources.
func (idx *LocalIndex) extendLandmark(li int32, ins []graph.Triple) int {
	u := idx.landmarks[li]
	g := idx.g

	ii := make(map[graph.VertexID]*labelset.CMS, len(idx.iiSorted[li])+len(ins))
	for _, e := range idx.iiSorted[li] {
		ii[e.v] = e.cms.Clone()
	}
	// EI[u] was reversed into EIT[u] at build time set-by-set, so
	// re-inserting every (key, w) pair reconstructs exactly the same
	// antichains.
	ei := make(map[graph.VertexID]*labelset.CMS)
	for _, e := range idx.eitSorted[li] {
		for _, w := range e.ws {
			c := ei[w]
			if c == nil {
				c = labelset.NewCMS()
				ei[w] = c
			}
			c.Insert(e.key)
		}
	}

	added := 0
	insert := func(m map[graph.VertexID]*labelset.CMS, v graph.VertexID, l labelset.Set) bool {
		c := m[v]
		if c == nil {
			c = labelset.NewCMS()
			m[v] = c
		}
		if c.Insert(l) {
			added++
			return true
		}
		return false
	}

	// Seeds: each inserted edge (s, l, t) with s already reached extends
	// every pre-batch minimal set of s by l. Sources not (yet) reached
	// contribute nothing directly — if the batch also makes them
	// reachable, the BFS below re-expands them, and their out-edges
	// (including inserted ones) are walked then. Seeding only reads the
	// source CMSs, which this loop never mutates, so iterating the live
	// Sets() is safe.
	var queue []liState
	for _, t := range ins {
		c := ii[t.Subject]
		if c == nil {
			continue
		}
		for _, ls := range c.Sets() {
			nl := ls.Add(t.Label)
			if idx.regionIs(t.Object, u) {
				queue = append(queue, liState{t.Object, nl})
			} else {
				insert(ei, t.Object, nl)
			}
		}
	}

	// The LocalFullIndex BFS loop, continued from the pre-batch entries
	// over the post-batch graph.
	for head := 0; head < len(queue); head++ {
		st := queue[head]
		if !insert(ii, st.v, st.l) {
			continue
		}
		rs := g.OutRuns(st.v)
		for ri, n := 0, rs.Len(); ri < n; ri++ {
			nl := st.l.Add(rs.Label(ri))
			for _, e := range rs.Run(ri) {
				if idx.regionIs(e.To, u) {
					queue = append(queue, liState{e.To, nl})
				} else {
					insert(ei, e.To, nl)
				}
			}
		}
	}

	// Rebuild EIT[u] and the D row from the updated EI[u], exactly as
	// the build tail does.
	eit := make(map[labelset.Set][]graph.VertexID, len(idx.eitSorted[li]))
	for w, c := range ei {
		for _, l := range c.Sets() {
			eit[l] = append(eit[l], w)
		}
	}
	for _, ws := range eit {
		sort.Slice(ws, func(i, j int) bool { return ws[i] < ws[j] })
	}
	idx.iiSorted[li] = sortedIIEntries(ii)
	idx.eitSorted[li] = sortedEITEntries(eit)
	idx.drows[li], _ = idx.dRow(ei, nil)
	return added
}

// RebuildFrozen builds, from scratch on g, the index ApplyMutations
// should have maintained: the same landmark set and frozen region
// assignment, every clean landmark's entries recomputed by the full
// LocalFullIndex pass over g, and every dirty landmark's stale entries
// (and dirty flag) carried over verbatim. It is the maintenance oracle
// of the equivalence tier and the fuzz target: if incremental
// propagation is exact, idx.EqualStructure(idx.RebuildFrozen(idx.Graph()))
// is nil.
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
