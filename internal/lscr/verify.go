package lscr

import (
	"lscr/internal/graph"
	"lscr/internal/pattern"
)

// verifier is the half of a verification search that differs between
// UIS* (Algorithm 2) and INS (Algorithm 4); verify runs the other half.
// The driver calls both methods once per satisfying vertex, never per
// edge, so the interface call stays off the hot path.
type verifier interface {
	// next returns the next satisfying vertex to verify, or false once
	// V(S,G) is exhausted. Each strategy polls the interrupt here at its
	// own cadence.
	next() (graph.VertexID, bool, error)
	// lcs runs one LCS(s*, t*, L, B) call with B = fromSat and reports
	// whether it proved s* -L-> t*. The driver never passes s* = t*. A
	// non-nil error is an interrupt and aborts the whole search.
	lcs(sStar, tStar graph.VertexID, fromSat bool) (bool, error)
}

// search is the state a strategy's LCS calls share across invocations.
type search struct {
	g     *graph.Graph
	q     Query
	close *closeMap
	tr    Tracer
	ic    interruptCheck
}

// verify answers q with UIS* when idx is nil and with INS otherwise.
// It runs the lines the two algorithms share — Lines 2-12 of Algorithm
// 2, Lines 3-14 of Algorithm 4 — over the close surjection, and leaves
// to the strategy where the next satisfying vertex comes from and how
// LCS explores. vsOrder is V(S,G); nil lets the pattern matcher compute
// it.
func verify(g *graph.Graph, idx *LocalIndex, q Query, vsOrder []graph.VertexID, tr Tracer) (bool, Stats, error) {
	if err := validate(g, q); err != nil {
		return false, Stats{}, err
	}
	if idx != nil && idx.Graph() != g {
		return false, Stats{}, ErrIndexMismatch
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
	s := search{g: g, q: q, close: &sc.close, tr: tr, ic: interruptCheck{fn: q.Interrupt}}
	var vr verifier
	if idx == nil {
		sc.uisStar.start(s, vs)
		vr = &sc.uisStar
	} else {
		// H is filled while s is still N: H's keys are revalidated only
		// lazily, so s's initial key decides when it surfaces.
		if err := sc.ins.start(s, sc, idx, vs); err != nil {
			return false, Stats{}, err
		}
		vr = &sc.ins
	}
	close := &sc.close
	close.set(q.Source, F)
	if tr != nil {
		tr.Transition(q.Source, F, graph.NoVertex, 0, false)
	}

	// s is F from here on, so the vertices next returns as N are never s.
	for {
		v, ok, err := vr.next()
		if err != nil {
			return false, Stats{}, err
		}
		if !ok {
			return false, close.stats(graph.NoVertex), nil
		}
		found := false
		switch close.get(v) {
		case N:
			if v == q.Target {
				// The satisfying vertex is an endpoint, so the query
				// reduces to LCR reachability s -L-> t, which decides it.
				if found, err = vr.lcs(q.Source, q.Target, false); err == nil && !found {
					return false, close.stats(graph.NoVertex), nil
				}
			} else if found, err = vr.lcs(q.Source, v, false); found { // s -L-> v?
				found, err = vr.lcs(v, q.Target, true) // v -L-> t?
			}
		case F:
			// s -L-> v is already known. If v is the target, the path
			// from s to v itself passes the satisfying vertex v. (The
			// paper's LCS(v, t, L, T) would miss this zero-length path:
			// it reports t only once an edge reaches it.)
			if found = v == q.Target; !found {
				found, err = vr.lcs(v, q.Target, true)
			}
		case T:
			// s -L,S-> v is known and the exhaustive T-phase that marked
			// it did not reach t; nothing further to do for v.
		}
		if err != nil {
			return false, Stats{}, err
		}
		if found {
			return true, close.stats(v), nil
		}
	}
}
