package lscr

import (
	"lscr/internal/graph"
	"lscr/internal/pattern"
)

// UIS answers the LSCR query q on g with the uninformed search of
// Algorithm 1. It evaluates the substructure constraint per passed vertex
// with SCck and can revisit a vertex once more after a satisfying vertex
// upgrades the frontier (the recall ability DFS/BFS lack, §3).
//
// Time complexity: O(|V|·(|V_S|+|E_S|+|E_?|) + |E|) (Theorem 3.3).
func UIS(g *graph.Graph, q Query) (bool, Stats, error) {
	return uisRun(g, q, nil)
}

// UISTraced is UIS with a Tracer observing every close-state transition
// (the search tree of Definition 3.2, Figure 4).
func UISTraced(g *graph.Graph, q Query, tr Tracer) (bool, Stats, error) {
	return uisRun(g, q, tr)
}

func uisRun(g *graph.Graph, q Query, tr Tracer) (bool, Stats, error) {
	if err := validate(g, q); err != nil {
		return false, Stats{}, err
	}
	m, err := pattern.NewMatcher(g, q.Constraint)
	if err != nil {
		return false, Stats{}, err
	}
	sc := getScratch(g.NumVertices())
	defer putScratch(sc)
	close := &sc.close
	scck := 0
	check := func(v graph.VertexID) State {
		scck++
		if m.Check(v) {
			return T
		}
		return F
	}

	// sat[v] records, for T-marked vertices, the satisfying vertex whose
	// discovery put v's subtree into the T state — the witness anchor.
	sat := sc.satTable(g.NumVertices())

	// Line 1-2: stack with s; close[s] <- SCck(s, S).
	stack := append(sc.stack[:0], q.Source)
	defer func() { sc.stack = stack }()
	close.set(q.Source, check(q.Source))
	if close.get(q.Source) == T {
		sat[q.Source] = uint32(q.Source)
	}
	if tr != nil {
		tr.Transition(q.Source, close.get(q.Source), graph.NoVertex, 0, false)
	}

	// A zero-length path from s suffices when s = t and s satisfies S.
	if q.Source == q.Target && close.get(q.Source) == T {
		return true, close.statsSat(scck, q.Source), nil
	}

	// Lines 3-11.
	ic := interruptCheck{fn: q.Interrupt}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		// The label-run view walks only the runs inside q.Labels, so edges
		// outside the constraint are never touched. The run scan itself is
		// ticked up front so cancellation stays prompt even when every run
		// is rejected (on the graph package's one-run-per-edge test view
		// Len() is the degree, restoring the per-edge accounting of the
		// pre-CSR layout).
		rs := g.OutRuns(u)
		if err := ic.tickN(rs.Len()); err != nil {
			return false, Stats{}, err
		}
		for ri, n := 0, rs.Len(); ri < n; ri++ {
			if !q.Labels.Contains(rs.Label(ri)) {
				continue
			}
			run := rs.Run(ri)
			if err := ic.tickN(len(run)); err != nil {
				return false, Stats{}, err
			}
			for _, e := range run {
				v := e.To
				switch {
				case close.get(u) == T && close.get(v) != T:
					// Case 1: s -L,S-> u and u -L-> v, so s -L,S-> v.
					close.set(v, T)
					sat[v] = sat[u]
					stack = append(stack, v)
					if tr != nil {
						tr.Transition(v, T, u, e.Label, false)
					}
				case close.get(v) == N:
					// Case 2: first visit; close[v] <- SCck(v, S).
					st := check(v)
					close.set(v, st)
					if st == T {
						sat[v] = uint32(v)
					}
					stack = append(stack, v)
					if tr != nil {
						tr.Transition(v, st, u, e.Label, false)
					}
				default:
					continue
				}
				// Lines 10-11.
				if v == q.Target && close.get(v) == T {
					return true, close.statsSat(scck, graph.VertexID(sat[v])), nil
				}
			}
		}
	}
	return false, close.stats(scck), nil
}
