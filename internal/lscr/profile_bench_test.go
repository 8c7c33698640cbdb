package lscr

import (
	"testing"

	"lscr/internal/graph"
	"lscr/internal/labelset"
	"lscr/internal/pattern"
	"lscr/internal/testkg"
)

// benchFixture builds a mid-size random KG with a moderately selective
// constraint for algorithm microbenchmarks.
func benchFixture(b *testing.B) (*graph.Graph, *LocalIndex, Query, []graph.VertexID) {
	b.Helper()
	rngSeed := int64(42)
	g := testkg.Random(randSrc(rngSeed), 20000, 70000, 8)
	idx := NewLocalIndex(g, IndexParams{Seed: rngSeed})
	l0 := graph.Label(0)
	cons := &pattern.Constraint{
		Focus:    "x",
		Patterns: []pattern.TriplePattern{{Subject: pattern.V("x"), Label: l0, Object: pattern.C(graph.VertexID(7))}},
	}
	m, err := pattern.NewMatcher(g, cons)
	if err != nil {
		b.Fatal(err)
	}
	vs := m.MatchAll()
	q := Query{
		Source:     graph.VertexID(123),
		Target:     graph.VertexID(19876),
		Labels:     labelset.Universe(6),
		Constraint: cons,
	}
	return g, idx, q, vs
}

func BenchmarkUISMid(b *testing.B) {
	g, _, q, _ := benchFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := UIS(g, q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUISStarMid(b *testing.B) {
	g, _, q, vs := benchFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := UISStar(g, q, vs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkINSMid(b *testing.B) {
	g, idx, q, vs := benchFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := INS(g, idx, q, vs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLocalIndexBuildSequential(b *testing.B) {
	g := testkg.Random(randSrc(3), 20000, 70000, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buildOnProcs(1, g, IndexParams{Seed: 1})
	}
}

func BenchmarkLocalIndexBuildParallel(b *testing.B) {
	g := testkg.Random(randSrc(3), 20000, 70000, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NewLocalIndex(g, IndexParams{Seed: 1})
	}
}

func BenchmarkFindWitness(b *testing.B) {
	g, idx, q, vs := benchFixture(b)
	ans, st, err := INS(g, idx, q, vs)
	if err != nil || !ans {
		b.Skip("fixture query not reachable; witness bench skipped")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := FindWitness(g, q.Source, q.Target, st.Satisfying, q.Labels); !ok {
			b.Fatal("witness lost")
		}
	}
}

func BenchmarkUISMulti(b *testing.B) {
	g, _, q, _ := benchFixture(b)
	mq := MultiQuery{
		Source: q.Source, Target: q.Target, Labels: q.Labels,
		Constraints: []*pattern.Constraint{q.Constraint, q.Constraint},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := UISMulti(g, mq); err != nil {
			b.Fatal(err)
		}
	}
}
