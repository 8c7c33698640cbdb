package lscr

import (
	"lscr/internal/graph"
	"lscr/internal/labelset"
	"lscr/internal/lcr"
)

// Hop is one edge of a witness path.
type Hop struct {
	From  graph.VertexID
	Label graph.Label
	To    graph.VertexID
}

// Witness is a concrete path certifying a true LSCR answer: every hop
// label belongs to the query's label constraint and Satisfying — a
// vertex on the path — satisfies the substructure constraint. For the
// paper's crime-detection scenario this is the evidence chain itself
// ("which middleman?").
type Witness struct {
	Hops       []Hop
	Satisfying graph.VertexID
}

// Vertices returns the path's vertex sequence (length len(Hops)+1; just
// the endpoint when the path is empty).
func (w *Witness) Vertices(s graph.VertexID) []graph.VertexID {
	out := []graph.VertexID{s}
	for _, h := range w.Hops {
		out = append(out, h.To)
	}
	return out
}

// FindWitness builds a witness for s -L,S-> t given a vertex vStar that
// satisfies S with s -L-> vStar and vStar -L-> t (the anchor every
// algorithm reports in Stats.Satisfying on a true answer). It
// concatenates two shortest label-constrained paths, s→vStar and
// vStar→t. The second result is false only if the premise does not hold.
func FindWitness(g *graph.Graph, s, t, vStar graph.VertexID, L labelset.Set) (*Witness, bool) {
	w := lcr.GetWalker()
	defer lcr.PutWalker(w)
	first, ok := shortestPath(g, s, vStar, L, w)
	if !ok {
		return nil, false
	}
	second, ok := shortestPath(g, vStar, t, L, w)
	if !ok {
		return nil, false
	}
	return &Witness{Hops: append(first, second...), Satisfying: vStar}, true
}

// shortestPath returns the hops of a shortest path from s to t using
// only labels in L (empty for s == t): the parent links of a pooled BFS
// walk, read back from t. Only the returned hop slice is allocated, so
// witness reconstruction stays allocation-free per passed vertex even on
// multi-million-vertex graphs.
func shortestPath(g *graph.Graph, s, t graph.VertexID, L labelset.Set, w *lcr.Walker) ([]Hop, bool) {
	if !w.Run(g, s, t, L, lcr.Walk{Parents: true}) {
		return nil, false
	}
	var rev []Hop
	for v := t; v != s; {
		p := w.Parent(v)
		rev = append(rev, Hop{From: p.From, Label: p.Label, To: v})
		v = p.From
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev, true
}

// Valid checks the witness against a query: consecutive hops chain from
// s to t, every label is in L, and Satisfying lies on the path. It is
// used by tests and available to paranoid callers.
func (w *Witness) Valid(g *graph.Graph, q Query) bool {
	cur := q.Source
	onPath := cur == w.Satisfying
	for _, h := range w.Hops {
		if h.From != cur || !q.Labels.Contains(h.Label) || !g.HasEdge(h.From, h.Label, h.To) {
			return false
		}
		cur = h.To
		if cur == w.Satisfying {
			onPath = true
		}
	}
	return cur == q.Target && onPath
}
