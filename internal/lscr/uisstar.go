package lscr

import (
	"lscr/internal/graph"
	"lscr/internal/pattern"
)

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
	return uisStarImpl(g, q, vsOrder, nil)
}

// UISStarTraced is UISStar with a Tracer observing close-state
// transitions and LCS invocation boundaries (Figures 6 and 7).
func UISStarTraced(g *graph.Graph, q Query, vsOrder []graph.VertexID, tr Tracer) (bool, Stats, error) {
	return uisStarImpl(g, q, vsOrder, tr)
}

func uisStarImpl(g *graph.Graph, q Query, vsOrder []graph.VertexID, tr Tracer) (bool, Stats, error) {
	if err := validate(g, q); err != nil {
		return false, Stats{}, err
	}
	vs := vsOrder
	if vs == nil {
		m, err := pattern.NewMatcher(g, q.Constraint)
		if err != nil {
			return false, Stats{}, err
		}
		vs = m.MatchAll()
	}

	sc := getScratch(g.NumVertices())
	defer putScratch(sc)
	u := &uisStarRun{
		g:     g,
		q:     q,
		close: newCloseMap(sc),
		stack: []graph.VertexID{q.Source}, // Line 1: global stack with s.
		tr:    tr,
		ic:    interruptCheck{fn: q.Interrupt},
	}
	u.close.set(q.Source, F) // Line 2.
	if tr != nil {
		tr.Transition(q.Source, F, graph.NoVertex, 0, false)
	}

	// Lines 3-12.
	for _, v := range vs {
		if err := u.ic.tick(); err != nil {
			return false, Stats{}, err
		}
		switch u.close.get(v) {
		case N:
			if v == q.Source || v == q.Target {
				// Line 5-6: v satisfies S and coincides with an endpoint,
				// so the query reduces to plain LCR reachability.
				ok, err := u.lcs(q.Source, q.Target, false)
				if err != nil {
					return false, Stats{}, err
				}
				if ok {
					return true, u.close.statsSat(0, v), nil
				}
				return false, u.close.stats(0), nil
			}
			ok, err := u.lcs(q.Source, v, false) // Line 7: s -L-> v?
			if err != nil {
				return false, Stats{}, err
			}
			if ok {
				tail := v == q.Target
				if !tail {
					if tail, err = u.lcs(v, q.Target, true); err != nil { // Line 8: v -L-> t?
						return false, Stats{}, err
					}
				}
				if tail {
					return true, u.close.statsSat(0, v), nil
				}
			}
		case F:
			// s -L-> v is already known. If v is the target, the path
			// from s to v itself passes the satisfying vertex v. (The
			// paper's Line 11 would run LCS(v,t,L,T), which misses this
			// zero-length path: it reports t only once an edge reaches it.)
			if v == q.Target {
				return true, u.close.statsSat(0, v), nil
			}
			ok, err := u.lcs(v, q.Target, true) // Lines 10-12.
			if err != nil {
				return false, Stats{}, err
			}
			if ok {
				return true, u.close.statsSat(0, v), nil
			}
		case T:
			// s -L,S-> v is known and the exhaustive T-phase that marked
			// it did not reach t; nothing further to do for v.
		}
	}
	return false, u.close.stats(0), nil
}

// uisStarRun carries the global state shared by LCS invocations.
type uisStarRun struct {
	g     *graph.Graph
	q     Query
	close *closeMap
	stack []graph.VertexID
	tr    Tracer
	ic    interruptCheck
}

// lcs is the LCS(s*, t*, L, B) function of Algorithm 2 (Lines 14-24),
// evaluating s* -L-> t* on the shared stack. With fromSat (B = T) the
// frontier is marked T and may re-explore F vertices; without it (B = F)
// only N vertices are explored and marked F. A non-nil error is an
// interrupt (the query's Interrupt fired) and aborts the whole search.
func (u *uisStarRun) lcs(sStar, tStar graph.VertexID, fromSat bool) (bool, error) {
	if sStar == tStar && !fromSat {
		// LCR-reachability of a vertex from itself is trivially true.
		return true, nil
	}
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
		if sStar == tStar {
			return true, nil
		}
	}
	// Line 17: while (B=F ∧ S≠φ) or (B = close[S.first] = T).
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
				if fromSat && u.close.get(w) != T || !fromSat && u.close.get(w) == N {
					if fromSat {
						u.close.set(w, T)
					} else {
						u.close.set(w, F)
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
	}
	// Line 24: pop the elements this T-phase pushed (their close is T);
	// the F-residue below them stays for later invocations.
	for len(u.stack) > 0 && u.close.get(u.stack[len(u.stack)-1]) == T {
		u.stack = u.stack[:len(u.stack)-1]
	}
	return false, nil
}
