package graph

import (
	"math/rand"
	"testing"

	"lscr/internal/labelset"
)

// refGraph is the seed slice-of-slices layout, rebuilt naively from a
// triple list in insertion order. The CSR graph must be observationally
// identical to it: same Out/In edge multisets per vertex, same Triples
// multiset, same HasEdge relation.
type refGraph struct {
	out, in [][]Edge
}

func newRefGraph(n int, edges []Triple) *refGraph {
	r := &refGraph{out: make([][]Edge, n), in: make([][]Edge, n)}
	for _, e := range edges {
		r.out[e.Subject] = append(r.out[e.Subject], Edge{To: e.Object, Label: e.Label})
		r.in[e.Object] = append(r.in[e.Object], Edge{To: e.Subject, Label: e.Label})
	}
	return r
}

type edgeKey struct {
	v VertexID
	e Edge
}

func multiset(adj [][]Edge) map[edgeKey]int {
	m := map[edgeKey]int{}
	for v, es := range adj {
		for _, e := range es {
			m[edgeKey{VertexID(v), e}]++
		}
	}
	return m
}

func graphMultiset(g *Graph, in bool) map[edgeKey]int {
	m := map[edgeKey]int{}
	for v := 0; v < g.NumVertices(); v++ {
		es := g.Out(VertexID(v))
		if in {
			es = g.In(VertexID(v))
		}
		for _, e := range es {
			m[edgeKey{VertexID(v), e}]++
		}
	}
	return m
}

func equalMultisets(a, b map[edgeKey]int) bool {
	if len(a) != len(b) {
		return false
	}
	for k, c := range a {
		if b[k] != c {
			return false
		}
	}
	return true
}

// randomTriples derives a deterministic edge list from a seed.
func randomTriples(seed int64, n, m, nLabels int) (*Builder, []Triple) {
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder()
	for i := 0; i < n; i++ {
		b.Vertex(vname(i))
	}
	for i := 0; i < nLabels; i++ {
		b.Label("l" + string(rune('a'+i)))
	}
	edges := make([]Triple, 0, m)
	for i := 0; i < m; i++ {
		t := Triple{
			Subject: VertexID(rng.Intn(n)),
			Label:   Label(rng.Intn(nLabels)),
			Object:  VertexID(rng.Intn(n)),
		}
		b.AddEdge(t.Subject, t.Label, t.Object)
		edges = append(edges, t)
	}
	return b, edges
}

// checkCSRAgainstRef asserts every observational property of the CSR
// graph against the seed-layout reference. It is shared by the quick
// property test and the fuzzer.
func checkCSRAgainstRef(t *testing.T, g *Graph, ref *refGraph, edges []Triple, nLabels int) {
	t.Helper()
	if g.NumEdges() != len(edges) {
		t.Fatalf("NumEdges = %d, want %d", g.NumEdges(), len(edges))
	}
	// Same Out/In multisets as the seed layout.
	if !equalMultisets(graphMultiset(g, false), multiset(ref.out)) {
		t.Fatal("Out multiset differs from seed layout")
	}
	if !equalMultisets(graphMultiset(g, true), multiset(ref.in)) {
		t.Fatal("In multiset differs from seed layout")
	}
	// Triples enumerates the same edge multiset, in (s, l, o) order.
	var last Triple
	seen := 0
	trip := map[Triple]int{}
	g.Triples(func(tr Triple) bool {
		if seen > 0 {
			if tr.Subject < last.Subject ||
				tr.Subject == last.Subject && tr.Label < last.Label ||
				tr.Subject == last.Subject && tr.Label == last.Label && tr.Object < last.Object {
				t.Fatalf("Triples out of order: %v after %v", tr, last)
			}
		}
		last = tr
		seen++
		trip[tr]++
		return true
	})
	if seen != len(edges) {
		t.Fatalf("Triples enumerated %d edges, want %d", seen, len(edges))
	}
	want := map[Triple]int{}
	for _, e := range edges {
		want[e]++
	}
	for k, c := range want {
		if trip[k] != c {
			t.Fatalf("Triples multiset differs at %v: %d vs %d", k, trip[k], c)
		}
	}
	noIdx := g.withoutLabelIndex()
	for v := 0; v < g.NumVertices(); v++ {
		id := VertexID(v)
		es := g.Out(id)
		// Runs sorted by (label, head).
		for i := 1; i < len(es); i++ {
			if es[i].Label < es[i-1].Label ||
				es[i].Label == es[i-1].Label && es[i].To < es[i-1].To {
				t.Fatalf("Out(%d) not sorted at %d: %v", v, i, es)
			}
		}
		for l := 0; l < nLabels; l++ {
			// OutWith returns exactly the edges with that label.
			got := g.OutWith(id, Label(l))
			cnt := 0
			for _, e := range es {
				if e.Label == Label(l) {
					cnt++
				}
			}
			if len(got) != cnt {
				t.Fatalf("OutWith(%d,%d) = %d edges, want %d", v, l, len(got), cnt)
			}
			for _, e := range got {
				if e.Label != Label(l) {
					t.Fatalf("OutWith(%d,%d) yielded label %d", v, l, e.Label)
				}
			}
		}
		// The label-run views filtered by a random constraint set yield
		// exactly the filtered subsequence of Out/In, in order, as
		// non-empty label-pure runs — with and without the label-run index.
		L := labelset.Set(uint64(v)*0x9e3779b97f4a7c15+0xb5) & labelset.Universe(nLabels)
		for _, dir := range []struct {
			name string
			all  []Edge
			runs func(*Graph) EdgeRuns
		}{
			{"OutRuns", es, func(gr *Graph) EdgeRuns { return gr.OutRuns(id) }},
			{"InRuns", g.In(id), func(gr *Graph) EdgeRuns { return gr.InRuns(id) }},
		} {
			var wantSeq []Edge
			for _, e := range dir.all {
				if L.Contains(e.Label) {
					wantSeq = append(wantSeq, e)
				}
			}
			for gi, gr := range []*Graph{g, noIdx} {
				var viaRuns []Edge
				rs := dir.runs(gr)
				for ri, n := 0, rs.Len(); ri < n; ri++ {
					if !L.Contains(rs.Label(ri)) {
						continue
					}
					run := rs.Run(ri)
					if len(run) == 0 {
						t.Fatalf("graph %d: %s(%d).Run(%d) empty", gi, dir.name, v, ri)
					}
					for _, e := range run {
						if e.Label != rs.Label(ri) {
							t.Fatalf("graph %d: %s(%d) run %d not label-pure", gi, dir.name, v, ri)
						}
					}
					viaRuns = append(viaRuns, run...)
				}
				if len(viaRuns) != len(wantSeq) {
					t.Fatalf("graph %d: %s(%d, %v) yielded %d edges, want %d", gi, dir.name, v, L, len(viaRuns), len(wantSeq))
				}
				for i := range wantSeq {
					if viaRuns[i] != wantSeq[i] {
						t.Fatalf("graph %d: %s(%d, %v) diverges at %d", gi, dir.name, v, L, i)
					}
				}
			}
		}
	}
	// HasEdge agrees with the reference relation (binary search vs scan),
	// both on present edges and on a probe grid.
	for _, e := range edges {
		if !g.HasEdge(e.Subject, e.Label, e.Object) {
			t.Fatalf("HasEdge misses present edge %v", e)
		}
	}
	rng := rand.New(rand.NewSource(int64(len(edges))))
	for i := 0; i < 200 && g.NumVertices() > 0; i++ {
		s := VertexID(rng.Intn(g.NumVertices()))
		o := VertexID(rng.Intn(g.NumVertices()))
		l := Label(rng.Intn(nLabels))
		want := false
		for _, e := range ref.out[s] {
			if e.To == o && e.Label == l {
				want = true
				break
			}
		}
		if got := g.HasEdge(s, l, o); got != want {
			t.Fatalf("HasEdge(%d,%d,%d) = %v, want %v", s, l, o, got, want)
		}
	}
}

// Property: for random edge lists, the CSR graph is observationally
// identical to the seed slice-of-slices layout.
func TestCSRObservationalEquivalenceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 60; i++ {
		n := rng.Intn(30) + 1
		m := rng.Intn(256)
		nLabels := rng.Intn(6) + 1
		seed := rng.Int63()
		t.Logf("shape %d: seed=%d n=%d m=%d labels=%d", i, seed, n, m, nLabels)
		b, edges := randomTriples(seed, n, m, nLabels)
		checkCSRAgainstRef(t, b.Build(), newRefGraph(n, edges), edges, nLabels)
	}
}

// FuzzCSREquivalence drives the same observational-equivalence check from
// fuzzed shape parameters.
func FuzzCSREquivalence(f *testing.F) {
	f.Add(int64(1), uint8(5), uint8(40), uint8(3))
	f.Add(int64(42), uint8(1), uint8(0), uint8(1))
	f.Add(int64(-9), uint8(29), uint8(255), uint8(5))
	f.Fuzz(func(t *testing.T, seed int64, nRaw, mRaw, lRaw uint8) {
		n := int(nRaw%30) + 1
		m := int(mRaw)
		nLabels := int(lRaw%6) + 1
		b, edges := randomTriples(seed, n, m, nLabels)
		g := b.Build()
		checkCSRAgainstRef(t, g, newRefGraph(n, edges), edges, nLabels)
	})
}

// TestWithoutLabelIndexOverlay runs the labeled-versus-filtering scan
// check on a view carrying committed batches of inserts and deletes, and
// pins that withoutLabelIndex degenerates the overlay's rows as well as
// the base rows (one run per edge, same edges in the same order) while
// the view it came from keeps one run per label.
func TestWithoutLabelIndexOverlay(t *testing.T) {
	main, _, err := runDeltaScript(3, 40, 300, 4, 3, 16)
	if err != nil {
		t.Fatal(err)
	}
	g, model := main.last()
	checkCSRAgainstRef(t, g, newRefGraph(len(model.names), model.edges), model.edges, len(model.labels))

	noIdx := g.withoutLabelIndex()
	touched := 0
	for v := 0; v < g.NumVertices(); v++ {
		id := VertexID(v)
		if g.ov.out.get(id) != nil {
			touched++
		}
		for _, dir := range []struct {
			es         []Edge
			runs, flat EdgeRuns
		}{
			{g.Out(id), g.OutRuns(id), noIdx.OutRuns(id)},
			{g.In(id), g.InRuns(id), noIdx.InRuns(id)},
		} {
			labels := 0
			for i, e := range dir.es {
				if i == 0 || e.Label != dir.es[i-1].Label {
					labels++
				}
			}
			if dir.runs.Len() != labels {
				t.Fatalf("vertex %d: %d runs over %d labels", v, dir.runs.Len(), labels)
			}
			if dir.flat.Len() != len(dir.es) {
				t.Fatalf("vertex %d: %d degenerate runs over %d edges", v, dir.flat.Len(), len(dir.es))
			}
			for i, e := range dir.es {
				if run := dir.flat.Run(i); len(run) != 1 || run[0] != e || dir.flat.Label(i) != e.Label {
					t.Fatalf("vertex %d: degenerate run %d is %v, want [%v]", v, i, run, e)
				}
			}
		}
	}
	if touched == 0 {
		t.Fatal("the script touched no vertex")
	}
}
