package lscr

import "lscr/internal/graph"

// INS answers the LSCR query q on g with the informed search of Algorithm
// 4, guided by a precomputed LocalIndex. Its two priority structures act
// as the evaluation function of a classical informed search (§5.2):
//
//   - H, a priority heap over V(S,G), decides which satisfying vertex to
//     verify next (F-marked before N-marked, then closer regions and
//     landmarks first). It is filled once and heapified, and its keys
//     are revalidated lazily, at the top, as the close map moves (hKey,
//     hPop);
//   - Q, the global priority queue replacing UIS*'s stack, decides which
//     frontier vertex to expand next (T before F, the target's region
//     first, landmarks first, closer regions first, regions whose
//     landmark is unexplored first, then FIFO) and removes duplicates,
//     keeping the most recent insertion.
//
// When the frontier touches a landmark w, the index prunes the search:
// Check(II[w], t*) answers within-region reachability immediately,
// Cut(II[w]) marks everything w reaches in its region, and Push(EIT[w])
// enqueues the boundary exits (Theorem 5.1).
//
// Under live mutations the shortcuts stay sound because idx describes
// g exactly: INS serves only the view the index was built for or
// maintained up to (idx.Graph() == g) and returns ErrIndexMismatch for
// any other. The engine maintains the index through every committed
// batch (see maintain.go), so the remaining gate is per landmark: a
// landmark whose region sources an edge inserted or deleted since the
// index was built (idx.Dirty) is expanded like an ordinary vertex over
// the exact merged adjacency, while every clean landmark keeps the full
// Check/Cut/Push pruning.
//
// vsOrder optionally supplies a precomputed V(S,G); pass nil to let the
// engine compute it.
func INS(g *graph.Graph, idx *LocalIndex, q Query, vsOrder []graph.VertexID) (bool, Stats, error) {
	return verify(g, idx, q, vsOrder, nil)
}

// INSTraced is INS with a Tracer observing close-state transitions
// (index-driven markings are flagged viaIndex) and LCS boundaries.
func INSTraced(g *graph.Graph, idx *LocalIndex, q Query, vsOrder []graph.VertexID, tr Tracer) (bool, Stats, error) {
	return verify(g, idx, q, vsOrder, tr)
}

// insRun is INS's strategy for the verification driver: V(S,G) from the
// heap H, and LCS on the priority queue Q plus the local index.
type insRun struct {
	search
	idx   *LocalIndex
	h     *keyHeap
	queue *frontierQueue

	// tStarAF caches the region of the LCS invocation's target t*; Q's
	// priority rules reference it.
	tStarAF graph.VertexID

	// cutDone records, per landmark index, whether Cut/Push has already
	// run in the F phase (bit 0) or T phase (bit 1); the marking is
	// idempotent per (w, L, B).
	cutDone []uint8
}

// start prepares the run over the pooled H, Q and cut table of sc.
func (r *insRun) start(s search, sc *scratch, idx *LocalIndex, vs []graph.VertexID) error {
	*r = insRun{
		search:  s,
		idx:     idx,
		h:       &sc.h,
		cutDone: sc.cutTable(len(idx.landmarks)),
	}
	// Line 1: H initialized by V(S,G): filled in place, then heapified
	// once. |V(S,G)| can approach |V|, so even initialization honours
	// the interrupt.
	*r.h = (*r.h)[:0]
	for i, v := range vs {
		if err := r.ic.tick(); err != nil {
			return err
		}
		*r.h = append(*r.h, heapItem{key: r.hKey(v, uint64(i)), v: v})
	}
	r.h.heapify()
	// Line 2: global priority queue with s.
	r.queue = newFrontierQueue(sc, s.g.NumVertices())
	r.enqueue(s.q.Source)
	return nil
}

// next pops H. Each pop revalidates stale keys (µs-scale on big
// V(S,G)), so the interrupt poll here is unamortised: a stride of
// thousands of pops would stretch cancellation latency past the budget.
func (r *insRun) next() (graph.VertexID, bool, error) {
	if err := r.ic.poll(); err != nil {
		return 0, false, err
	}
	v, ok := hPop(r.h, r.hKey)
	return v, ok, nil
}

// hKey orders H (§5.2) with a key packed like Q's, from the high bit
// down:
//
//	bits 62-61 close[v]: F = 0, N = 1, T = 2 — F-marked vertices first
//	bits 60-34 ρ code (LocalIndex.Rho)      — nearer first
//	bit 33     v is not a landmark          — landmarks first
//	bits 32-0  seq, v's position in V(S,G)  — makes every key unique
//
// An F-marked v is ranked by ρ(v, t), an N-marked one by ρ(s, v); all
// T-marked vertices share ρ code 0, since none can help any more. The
// order is exact while D < 2^26, the cap Q's rule (iv) shares.
func (r *insRun) hKey(v graph.VertexID, seq uint64) uint64 {
	var state, rho uint64
	switch r.close.get(v) {
	case F:
		rho = r.idx.Rho(v, r.q.Target)
	case N:
		state = 1
		rho = r.idx.Rho(r.q.Source, v)
	case T:
		state = 2
	}
	key := state<<61 | rho<<34 | seq&fqSeqMask
	if !r.idx.IsLandmark(v) {
		key |= 1 << 33
	}
	return key
}

// hPop removes and returns H's best vertex. H's keys snapshot mutable
// search state, so the top is revalidated first: when keyOf, given the
// item's seq, disagrees with the stored key, the fresh key is stored
// and sifted down, and the new top is examined. Only the minimum is
// ever settled and every key is unique, so the pop order depends on the
// keys alone, not on the heap's layout. A buried vertex whose priority
// improved surfaces once its stale key reaches the top; pop order
// affects guidance quality, never correctness.
func hPop(h *keyHeap, keyOf func(graph.VertexID, uint64) uint64) (graph.VertexID, bool) {
	for len(*h) > 0 {
		top := (*h)[0]
		if cur := keyOf(top.v, top.key&fqSeqMask); cur != top.key {
			(*h)[0].key = cur
			h.down(0)
			continue
		}
		h.popTop()
		return top.v, true
	}
	return 0, false
}

// enqueue pushes v into Q with the packed priority implementing the §5.2
// rules: (i) close T before F; (ii) the current target's region first;
// (iii) landmarks first; (iv) smaller ρ(u, t*) first; (v) regions whose
// landmark is still unexplored first; (vi) FIFO.
func (r *insRun) enqueue(v graph.VertexID) {
	var key uint64
	if r.close.get(v) != T {
		key |= 1 << 62
	}
	af := r.idx.Region(v)
	var rank uint64
	if !(af != graph.NoVertex && af == r.tStarAF) {
		rank = 2 // rule (ii) dominates rule (iii)
	}
	if !r.idx.IsLandmark(v) {
		rank++
	}
	key |= rank << 60
	// Rule (iv): smaller ρ first, i.e. more boundary connections D.
	var d int
	if af != graph.NoVertex && r.tStarAF != graph.NoVertex && af != r.tStarAF {
		d = r.idx.D(af, r.tStarAF)
	}
	key |= rhoCode(d) << 34
	if af == graph.NoVertex || r.close.get(af) != N {
		key |= 1 << 33
	}
	r.queue.push(v, key)
}

// lcs is the LCS(s*, t*, L, B) of Algorithm 4 (lines 16-30). With fromSat
// (B = T) the frontier is marked T and may re-explore F vertices.
func (r *insRun) lcs(sStar, tStar graph.VertexID, fromSat bool) (bool, error) {
	r.tStarAF = r.idx.Region(tStar)
	if r.tr != nil {
		r.tr.Invocation(sStar, tStar, fromSat)
	}
	if fromSat {
		r.close.set(sStar, T) // Lines 17-18.
		r.enqueue(sStar)
		if r.tr != nil {
			r.tr.Transition(sStar, T, graph.NoVertex, 0, false)
		}
	}
	L := r.q.Labels
	// Line 19: while (B=F ∧ Q≠φ) or (B = close[Q.first] = T).
	for {
		top, ok := r.queue.peek()
		if !ok {
			break
		}
		if fromSat && r.close.get(top) != T {
			break
		}
		u, _ := r.queue.pop()
		rs := r.g.OutRuns(u)
		// Tick the run scan up front: cancellation must stay prompt even
		// when every run is rejected by the label constraint.
		if err := r.ic.tickN(rs.Len()); err != nil {
			return false, err
		}
		for ri, n := 0, rs.Len(); ri < n; ri++ { // Lines 21-29.
			if !L.Contains(rs.Label(ri)) {
				continue
			}
			run := rs.Run(ri)
			if err := r.ic.tickN(len(run)); err != nil {
				return false, err
			}
			for _, e := range run {
				w := e.To
				found := false
				if r.tStarAF == w && !r.idx.Dirty(w) && r.idx.Check(w, tStar, L) {
					// Lines 22-23: t* lives in w's region and w reaches it there.
					found = true
				} else if r.idx.IsLandmark(w) && !r.idx.Dirty(w) { // Lines 24-25.
					found = r.cutPush(w, tStar, fromSat)
				} else if r.close.mark(w, fromSat) { // Lines 26-27.
					r.enqueue(w)
					if r.tr != nil {
						r.tr.Transition(w, r.close.get(w), u, e.Label, false)
					}
					found = w == tStar // Lines 28-29.
				}
				if found {
					// Re-insert the partially scanned u so a later
					// invocation rescans its remaining edges, as UIS*
					// re-pushes it on its stack.
					r.enqueue(u)
					return true, nil
				}
			}
		}
	}
	// Unlike UIS*, INS has no stack cleanup (Theorem 5.6): the priority
	// rules keep T elements in front and duplicates are removed by Q.
	return false, nil
}

// cutPush runs Cut(II[w]) and Push(EIT[w]) for landmark w (line 25),
// reporting whether it proved s* -L-> t*. Cut marks every vertex w
// reaches inside F(w) under L; Push enqueues every boundary exit
// reachable under L (Theorem 5.1). The marking is idempotent per phase,
// so repeated hits on the same landmark are skipped.
func (r *insRun) cutPush(w, tStar graph.VertexID, fromSat bool) bool {
	bit := uint8(1)
	if fromSat {
		bit = 2
	}
	li := r.idx.lmIdx[w]
	if r.cutDone[li]&bit != 0 {
		return false
	}
	r.cutDone[li] |= bit
	L := r.q.Labels
	found := false
	mark := func(x graph.VertexID, enq bool) {
		if !r.close.mark(x, fromSat) {
			return
		}
		if enq {
			r.enqueue(x)
		}
		if r.tr != nil {
			r.tr.Transition(x, r.close.get(x), w, 0, true)
		}
		if x == tStar {
			found = true
		}
	}
	r.idx.IIEntries(w, L, func(x graph.VertexID) { mark(x, false) })
	r.idx.EITEntries(w, L, func(x graph.VertexID) { mark(x, true) })
	return found
}
