package lscr

import (
	"lscr/internal/graph"
	"lscr/internal/lcr"
	"lscr/internal/pattern"
)

// Naive answers an LSCR query with the direct DFS/BFS adaptation the
// paper analyses in §3 before introducing UIS: "at least two procedures
// are required". The first procedure searches the space s reaches under
// L, evaluating the substructure constraint on every passed vertex; each
// time it discovers a satisfying vertex v, a second procedure runs from
// v toward t. Neither procedure can revisit vertices within itself, and
// the second is restarted per satisfying vertex — up to |V(S,G)| times —
// which is exactly the O(|V|·(|V|+|E|)) worst case of Theorem 3.1 that
// motivates UIS's recall mechanism.
//
// This function exists as a measurable baseline (see
// BenchmarkNaiveVsUIS); use UIS for real queries.
func Naive(g *graph.Graph, q Query) (bool, Stats, error) {
	if err := validate(g, q); err != nil {
		return false, Stats{}, err
	}
	m, err := pattern.NewMatcher(g, q.Constraint)
	if err != nil {
		return false, Stats{}, err
	}
	n := g.NumVertices()
	st := Stats{Satisfying: graph.NoVertex}
	scck := 0
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)

	// Procedure 1: DFS over the space s reaches under L, checking S per
	// vertex and invoking procedure 2 on hits. Procedure 2 is the plain
	// LCR search lcr.Reach from the hit to t: a fresh pooled walk per
	// invocation (the "executed up to |V(S,G)| times" part), not a fresh
	// |V|-sized allocation.
	sc.vis.Reset(n)
	sc.vis.Visit(q.Source)
	st.PassedVertices = 1
	st.SearchTreeNodes = 1
	stack := sc.stack[:0]
	defer func() { sc.stack = stack }()
	stack = append(stack, q.Source)
	scck++
	if m.Check(q.Source) {
		if lcr.Reach(g, q.Source, q.Target, q.Labels) {
			st.SCckCalls = scck
			st.Satisfying = q.Source
			return true, st, nil
		}
	}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		rs := g.OutRuns(u)
		for ri, n := 0, rs.Len(); ri < n; ri++ {
			if !q.Labels.Contains(rs.Label(ri)) {
				continue
			}
			for _, e := range rs.Run(ri) {
				if sc.vis.Visited(e.To) {
					continue
				}
				sc.vis.Visit(e.To)
				st.PassedVertices++
				st.SearchTreeNodes++
				scck++
				if m.Check(e.To) {
					if lcr.Reach(g, e.To, q.Target, q.Labels) {
						st.SCckCalls = scck
						st.Satisfying = e.To
						return true, st, nil
					}
				}
				stack = append(stack, e.To)
			}
		}
	}
	st.SCckCalls = scck
	return false, st, nil
}
