package graph

import (
	"math/rand"
	"strconv"
	"testing"

	"lscr/internal/labelset"
)

func benchGraph(tb testing.TB, n, m int) *Graph {
	tb.Helper()
	rng := rand.New(rand.NewSource(1))
	gb := NewBuilder()
	for i := 0; i < n; i++ {
		gb.Vertex("v" + strconv.Itoa(i))
	}
	for i := 0; i < 8; i++ {
		gb.Label("l" + strconv.Itoa(i))
	}
	for i := 0; i < m; i++ {
		gb.AddEdge(VertexID(rng.Intn(n)), Label(rng.Intn(8)), VertexID(rng.Intn(n)))
	}
	return gb.Build()
}

func BenchmarkBuild(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	type edge struct {
		s, o VertexID
		l    Label
	}
	const n, m = 10000, 40000
	edges := make([]edge, m)
	for i := range edges {
		edges[i] = edge{VertexID(rng.Intn(n)), VertexID(rng.Intn(n)), Label(rng.Intn(8))}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gb := NewBuilder()
		for j := 0; j < n; j++ {
			gb.Vertex("v" + strconv.Itoa(j))
		}
		for j := 0; j < 8; j++ {
			gb.Label("l" + strconv.Itoa(j))
		}
		for _, e := range edges {
			gb.AddEdge(e.s, e.l, e.o)
		}
		g := gb.Build()
		if g.NumEdges() != m {
			b.Fatal("bad build")
		}
	}
}

func BenchmarkHasEdge(b *testing.B) {
	g := benchGraph(b, 10000, 40000)
	rng := rand.New(rand.NewSource(2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.HasEdge(VertexID(rng.Intn(10000)), Label(rng.Intn(8)), VertexID(rng.Intn(10000)))
	}
}

// hubGraph has one vertex of out-degree `deg` — the shape where HasEdge's
// binary search over the sorted CSR run beats the seed layout's linear
// scan by orders of magnitude, and where the label-run index pays off
// most.
func hubGraph(b *testing.B, deg int) (*Graph, VertexID) {
	b.Helper()
	gb := NewBuilder()
	hub := gb.Vertex("hub")
	for i := 0; i < 8; i++ {
		gb.Label("l" + strconv.Itoa(i))
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < deg; i++ {
		gb.AddEdge(hub, Label(rng.Intn(8)), gb.Vertex("s"+strconv.Itoa(i)))
	}
	return gb.Build(), hub
}

// BenchmarkHasEdgeHub is the regression guard for HasEdge's complexity:
// with a 20k-degree hub the pre-CSR linear scan averaged ~10k edge
// comparisons per probe; the binary search does ~15.
func BenchmarkHasEdgeHub(b *testing.B) {
	g, hub := hubGraph(b, 20000)
	rng := rand.New(rand.NewSource(4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.HasEdge(hub, Label(rng.Intn(8)), VertexID(rng.Intn(20000)))
	}
}

// BenchmarkScan compares the two adjacency access patterns on a selective
// 1-of-8-labels constraint over a high-degree vertex: "labeled" walks only
// the matching label run via the run index, "filter" (the seed layout's
// pattern, via withoutLabelIndex) scans all edges and tests each label.
func BenchmarkScan(b *testing.B) {
	g, hub := hubGraph(b, 20000)
	L := labelset.New(3)
	for _, mode := range []struct {
		name string
		g    *Graph
	}{
		{"labeled", g},
		{"filter", g.withoutLabelIndex()},
	} {
		b.Run(mode.name, func(b *testing.B) {
			total := 0
			for i := 0; i < b.N; i++ {
				rs := mode.g.OutRuns(hub)
				for ri, n := 0, rs.Len(); ri < n; ri++ {
					if L.Contains(rs.Label(ri)) {
						total += len(rs.Run(ri))
					}
				}
			}
			if total == 0 {
				b.Fatal("no edges matched")
			}
		})
	}
}

// BenchmarkDeltaCommit times one 16-op Commit on a 20k-vertex graph whose
// overlay already holds the given number of ops. The persistent overlay
// re-merges only the batch's rows, so the cost should not grow with the
// overlay; staging the batch is outside the timer.
func BenchmarkDeltaCommit(b *testing.B) {
	for _, size := range []int{0, 1024, 4096} {
		b.Run("overlay="+strconv.Itoa(size), func(b *testing.B) {
			rng := rand.New(rand.NewSource(7))
			g := commitBatches(b, benchGraph(b, 20000, 80000), rng, size)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				d := stageBatch(b, g, rng, 16)
				b.StartTimer()
				if _, err := d.Commit(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
