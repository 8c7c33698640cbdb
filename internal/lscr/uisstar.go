package lscr

import "lscr/internal/graph"

// UISStar answers the LSCR query q on g with Algorithm 2 (UIS*): it
// obtains V(S,G) from the SPARQL-engine layer (the pattern matcher) and
// then verifies, per satisfying vertex v, the existence of s -L-> v and
// v -L-> t with the LCS subroutine, sharing one global stack and one
// close surjection across invocations so each vertex of G is processed at
// most twice (Theorem 4.5: O(|V|+|E|)).
//
// vsOrder optionally supplies a precomputed V(S,G); pass nil to let the
// engine compute it. The paper treats V(S,G) as disordered (§4); the
// order supplied here is the order the loop processes.
func UISStar(g *graph.Graph, q Query, vsOrder []graph.VertexID) (bool, Stats, error) {
	return verify(g, nil, q, vsOrder, nil)
}

// UISStarTraced is UISStar with a Tracer observing close-state
// transitions and LCS invocation boundaries (Figures 6 and 7).
func UISStarTraced(g *graph.Graph, q Query, vsOrder []graph.VertexID, tr Tracer) (bool, Stats, error) {
	return verify(g, nil, q, vsOrder, tr)
}

// uisStarRun is UIS*'s strategy for the verification driver: V(S,G) in
// the order given, and LCS on one global stack.
type uisStarRun struct {
	search
	stack []graph.VertexID
	vs    []graph.VertexID
	i     int // next position in vs
}

// start prepares the run; Line 1 puts s on the global stack.
func (u *uisStarRun) start(s search, vs []graph.VertexID) {
	u.search = s
	u.stack = append(u.stack[:0], s.q.Source)
	u.vs, u.i = vs, 0
}

// next returns V(S,G)'s vertices in order, ticking the amortised
// interrupt check once per vertex.
func (u *uisStarRun) next() (graph.VertexID, bool, error) {
	if u.i == len(u.vs) {
		return 0, false, nil
	}
	if err := u.ic.tick(); err != nil {
		return 0, false, err
	}
	u.i++
	return u.vs[u.i-1], true, nil
}

// lcs is the LCS(s*, t*, L, B) function of Algorithm 2 (Lines 14-24),
// evaluating s* -L-> t* on the shared stack. With fromSat (B = T) the
// frontier is marked T and may re-explore F vertices; without it (B = F)
// only N vertices are explored and marked F.
func (u *uisStarRun) lcs(sStar, tStar graph.VertexID, fromSat bool) (bool, error) {
	if u.tr != nil {
		u.tr.Invocation(sStar, tStar, fromSat)
	}
	if fromSat {
		// Line 15-16.
		u.close.set(sStar, T)
		u.stack = append(u.stack, sStar)
		if u.tr != nil {
			u.tr.Transition(sStar, T, graph.NoVertex, 0, false)
		}
	}
	// Line 17: while (B=F ∧ S≠φ) or (B = close[S.first] = T). The loop
	// also does the paper's Line 24: it exits only when the stack is
	// empty or its top is not T, so no element this T-phase pushed is
	// left to pop; the F-residue stays for later invocations.
	for len(u.stack) > 0 {
		top := u.stack[len(u.stack)-1]
		if fromSat && u.close.get(top) != T {
			break
		}
		u.stack = u.stack[:len(u.stack)-1] // Line 18: take u.
		rs := u.g.OutRuns(top)
		// Tick the run scan up front: cancellation must stay prompt even
		// when every run is rejected by the label constraint.
		if err := u.ic.tickN(rs.Len()); err != nil {
			return false, err
		}
		for ri, n := 0, rs.Len(); ri < n; ri++ {
			if !u.q.Labels.Contains(rs.Label(ri)) {
				continue
			}
			run := rs.Run(ri)
			if err := u.ic.tickN(len(run)); err != nil {
				return false, err
			}
			for _, e := range run {
				w := e.To
				// Line 20: case 1 (B=T ∧ close[w]≠T) or case 2 (B=F ∧ close[w]=N).
				if !u.close.mark(w, fromSat) {
					continue
				}
				u.stack = append(u.stack, w)
				if u.tr != nil {
					u.tr.Transition(w, u.close.get(w), top, e.Label, false)
				}
				if w == tStar { // Lines 22-23.
					// Re-push the partially scanned vertex so a later
					// invocation rescans its remaining edges (the paper
					// removes elements from S only once "passed", i.e.
					// fully processed — Figure 6(b)).
					if !fromSat {
						u.stack = append(u.stack, top)
					}
					return true, nil
				}
			}
		}
	}
	return false, nil
}
