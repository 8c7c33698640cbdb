package lcr

import (
	"math/rand"
	"testing"

	"lscr/internal/graph"
	"lscr/internal/labelset"
	"lscr/internal/testkg"
)

func benchFixture(b *testing.B) (*graph.Graph, labelset.Set) {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	g := testkg.Random(rng, 10000, 35000, 8)
	return g, labelset.Universe(6)
}

func BenchmarkReachBFS(b *testing.B) {
	g, L := benchFixture(b)
	rng := rand.New(rand.NewSource(2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Reach(g, graph.VertexID(rng.Intn(10000)), graph.VertexID(rng.Intn(10000)), L)
	}
}

func BenchmarkSourceCMS(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	g := testkg.Random(rng, 1000, 3000, 6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SourceCMS(g, graph.VertexID(i%1000))
	}
}

func BenchmarkSpanningTreeIndexBuild(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	g := testkg.Random(rng, 300, 900, 6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NewSpanningTreeIndex(g)
	}
}

func BenchmarkLandmarkIndexBuild(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	g := testkg.Random(rng, 300, 900, 6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NewLandmarkIndex(g, LandmarkParams{K: 30, B: 20, SkipRL: true})
	}
}
