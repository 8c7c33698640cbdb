// Package workload implements the paper's evaluation-query generation
// (§6.1.1 for LUBM, §6.2 for YAGO): groups of true- and false-LSCR
// queries with the irrelevant variables controlled —
//
//   - label-constraint sizes are uniform across the three buckets
//     [0.2t,0.4t), [0.4t,0.6t), [0.6t,0.8t] of the label-universe size t;
//   - targets are filtered so s does not reach t within log|V| BFS
//     levels (queries that are too easy are discarded);
//   - queries whose UIS search tree is smaller than a random threshold in
//     [10·log|V|, |V|/(10·log|V|)] are discarded;
//   - the three false-query types (s-L↛t ∧ s-S->t, s-L->t ∧ s-S↛t,
//     s-L↛t ∧ s-S↛t) appear in uniform proportion.
package workload

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"lscr/internal/graph"
	"lscr/internal/labelset"
	"lscr/internal/lcr"
	"lscr/internal/lscr"
	"lscr/internal/pattern"
)

// Query is an evaluation query with its ground-truth answer.
type Query struct {
	lscr.Query
	Expected bool
}

// Config controls generation.
type Config struct {
	// Count is the number of queries per group (the paper uses 1000; the
	// scaled-down harness uses less).
	Count int
	Seed  int64
	// MaxAttempts bounds the candidate loop per group; when exhausted,
	// Generate returns what it has (possibly short groups) rather than
	// spinning forever on graphs where some bucket is unreachable.
	MaxAttempts int
	// SkipTreeFilter disables the |T| threshold (useful on tiny graphs
	// where the paper's range is degenerate).
	SkipTreeFilter bool
}

// falseKind enumerates the three false-query possibilities of §6.1.1.
type falseKind int

const (
	falseOnlySubstructure falseKind = iota // s-L↛t ∧ s-S->t
	falseOnlyLabel                         // s-L->t ∧ s-S↛t
	falseNeither                           // s-L↛t ∧ s-S↛t
	numFalseKinds
)

// Generate produces a group of true and a group of false LSCR queries for
// the given substructure constraint. vs is V(S,G) (precomputed by the
// caller's SPARQL engine); it must be the full result set.
func Generate(g *graph.Graph, cons *pattern.Constraint, vs []graph.VertexID, cfg Config) (trueQ, falseQ []Query, err error) {
	if cfg.Count <= 0 {
		return nil, nil, errors.New("workload: Count must be positive")
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = cfg.Count * 400
	}
	n := g.NumVertices()
	if n < 2 {
		return nil, nil, errors.New("workload: graph too small")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	gen := &generator{
		g: g, cons: cons, vs: vs, rng: rng, cfg: cfg,
		logV: math.Max(1, math.Log2(float64(n))),
	}

	var trueBuckets, falseBuckets [3]int
	var falseKinds [numFalseKinds]int
	perBucketTrue := (cfg.Count + 2) / 3
	perBucketFalse := (cfg.Count + 2) / 3
	perKind := (cfg.Count + int(numFalseKinds) - 1) / int(numFalseKinds)

	for attempts := 0; attempts < cfg.MaxAttempts &&
		(len(trueQ) < cfg.Count || len(falseQ) < cfg.Count); attempts++ {
		q, bucket, ok := gen.candidate()
		if !ok {
			continue
		}
		ans, st, err := lscr.UIS(g, q)
		if err != nil {
			return nil, nil, err
		}
		if !cfg.SkipTreeFilter && !gen.treeSizeOK(st.SearchTreeNodes) {
			continue
		}
		if ans {
			if len(trueQ) >= cfg.Count || trueBuckets[bucket] >= perBucketTrue {
				continue
			}
			trueBuckets[bucket]++
			trueQ = append(trueQ, Query{Query: q, Expected: true})
			continue
		}
		if len(falseQ) >= cfg.Count || falseBuckets[bucket] >= perBucketFalse {
			continue
		}
		kind := gen.classifyFalse(q)
		if falseKinds[kind] >= perKind {
			continue
		}
		falseKinds[kind]++
		falseBuckets[bucket]++
		falseQ = append(falseQ, Query{Query: q, Expected: false})
	}
	if len(trueQ) == 0 && len(falseQ) == 0 {
		return nil, nil, fmt.Errorf("workload: no acceptable queries in %d attempts", cfg.MaxAttempts)
	}
	return trueQ, falseQ, nil
}

type generator struct {
	g    *graph.Graph
	cons *pattern.Constraint
	vs   []graph.VertexID
	rng  *rand.Rand
	cfg  Config
	logV float64
}

// candidate draws (s, L) at random, picks a non-trivial target by the
// log|V|-level BFS filter, and reports the label-size bucket.
func (gen *generator) candidate() (lscr.Query, int, bool) {
	g := gen.g
	s := graph.VertexID(gen.rng.Intn(g.NumVertices()))
	L, bucket := gen.randomLabelSet()
	t, ok := gen.pickTarget(s, L)
	if !ok {
		return lscr.Query{}, 0, false
	}
	return lscr.Query{Source: s, Target: t, Labels: L, Constraint: gen.cons}, bucket, true
}

// randomLabelSet draws |L| uniformly from one of the three buckets over
// [0.2t, 0.8t] and then |L| distinct labels.
func (gen *generator) randomLabelSet() (labelset.Set, int) {
	t := gen.g.NumLabels()
	bucket := gen.rng.Intn(3)
	lo := float64(t) * (0.2 + 0.2*float64(bucket))
	hi := lo + 0.2*float64(t)
	size := int(lo) + gen.rng.Intn(int(hi-lo)+1)
	if size < 1 {
		size = 1
	}
	if size > t {
		size = t
	}
	perm := gen.rng.Perm(t)
	var L labelset.Set
	for _, l := range perm[:size] {
		L = L.Add(labelset.Label(l))
	}
	return L, bucket
}

// pickTarget runs a label-constrained BFS from s for log|V| iterations
// (vertex expansions) and returns a random vertex the BFS did not explore
// ("for filtering out the vertices that s reaches only with a few steps",
// §6.1.1).
func (gen *generator) pickTarget(s graph.VertexID, L labelset.Set) (graph.VertexID, bool) {
	n := gen.g.NumVertices()
	w := lcr.GetWalker()
	defer lcr.PutWalker(w)
	expanded := 0
	w.Run(gen.g, s, graph.NoVertex, L, lcr.Walk{Visit: func(graph.VertexID) lcr.Step {
		if expanded == int(gen.logV) {
			return lcr.Stop
		}
		expanded++
		return lcr.Expand
	}})
	if len(w.Order()) == n {
		return 0, false // everything is near s; no valid target
	}
	// Uniform choice among unexplored via reservoir sampling.
	var t graph.VertexID
	seen := 0
	for v := 0; v < n; v++ {
		if w.Visited(graph.VertexID(v)) {
			continue
		}
		seen++
		if gen.rng.Intn(seen) == 0 {
			t = graph.VertexID(v)
		}
	}
	return t, seen > 0
}

// treeSizeOK applies the paper's |T| filter: a random min in
// [10·log|V|, |V|/(10·log|V|)] and |T| ≥ min. Degenerate ranges (small
// graphs) clamp to the lower bound.
func (gen *generator) treeSizeOK(tree int) bool {
	lo := 10 * gen.logV
	hi := float64(gen.g.NumVertices()) / (10 * gen.logV)
	if hi < lo {
		hi = lo
	}
	min := lo + gen.rng.Float64()*(hi-lo)
	return float64(tree) >= min
}

// classifyFalse determines which of the three §6.1.1 false types q is.
// The substructure-reachability half intersects the forward closure of s
// with the backward closure of t (two walks) instead of one BFS per
// satisfying vertex.
func (gen *generator) classifyFalse(q lscr.Query) falseKind {
	labelReach := lcr.Reach(gen.g, q.Source, q.Target, q.Labels)
	all := gen.g.LabelUniverse()
	fwd, bwd := lcr.GetWalker(), lcr.GetWalker()
	defer lcr.PutWalker(fwd)
	defer lcr.PutWalker(bwd)
	fwd.Run(gen.g, q.Source, graph.NoVertex, all, lcr.Walk{})
	bwd.Run(gen.g, q.Target, graph.NoVertex, all, lcr.Walk{Reverse: true})
	subReach := false
	for _, v := range gen.vs {
		if fwd.Visited(v) && bwd.Visited(v) {
			subReach = true
			break
		}
	}
	switch {
	case !labelReach && subReach:
		return falseOnlySubstructure
	case labelReach && !subReach:
		return falseOnlyLabel
	default:
		return falseNeither
	}
}
