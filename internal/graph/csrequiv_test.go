package graph_test

import (
	"context"
	"math/rand"
	"testing"

	pub "lscr"
	"lscr/internal/graph"
	"lscr/internal/lubm"
)

// TestConcurrentCSRLayoutEquivalence is the CSR equivalence tier: on the
// D1 dataset, Engine.Query must answer with bit-identical Reachable,
// Stats and SatisfyingVertices whether the graph carries the label-run
// index (labeled scan skips non-matching runs) or a withoutLabelIndex
// view (degenerate one-edge runs, the seed layout's per-edge filtering
// scan) — across all four algorithms, under concurrent load. It runs in
// the race-enabled CI tier (name matches the Concurrent filter).
func TestConcurrentCSRLayoutEquivalence(t *testing.T) {
	cfg := lubm.DefaultConfig(1) // D1
	cfg.Seed = 1
	g := lubm.Generate(cfg)

	// Two engines over the same storage: one with the label-run index,
	// one with the filtering view. The index build itself walks the same
	// CSR arrays in the same order, so the local indexes are identical
	// and the comparison isolates query-time scanning.
	opts := pub.Options{IndexSeed: 7, Landmarks: 64}
	engLabeled := pub.NewEngine(pub.FromGraph(g), opts)
	engFilter := pub.NewEngine(pub.FromGraph(graph.WithoutLabelIndex(g)), opts)

	consts := lubm.Constraints()
	algos := []pub.Algorithm{pub.INS, pub.UIS, pub.UISStar, pub.Conjunctive}
	rng := rand.New(rand.NewSource(11))
	var reqs []pub.Request
	for i := 0; i < 48; i++ {
		labels := make([]string, 0, 2)
		if i%4 != 0 { // every fourth request uses the whole label universe
			for len(labels) < 1+i%2 {
				labels = append(labels, g.LabelName(graph.Label(rng.Intn(g.NumLabels()))))
			}
		}
		req := pub.Request{
			Source:    g.VertexName(graph.VertexID(rng.Intn(g.NumVertices()))),
			Target:    g.VertexName(graph.VertexID(rng.Intn(g.NumVertices()))),
			Labels:    labels,
			Algorithm: algos[i%len(algos)],
		}
		if req.Algorithm == pub.Conjunctive {
			req.Constraints = []string{
				consts[i%len(consts)].SPARQL,
				consts[(i+1)%len(consts)].SPARQL,
			}
		} else {
			req.Constraint = consts[i%len(consts)].SPARQL
		}
		reqs = append(reqs, req)
	}

	ctx := context.Background()
	bo := pub.BatchOptions{Concurrency: 4}
	labeled := engLabeled.QueryBatch(ctx, reqs, bo)
	filtered := engFilter.QueryBatch(ctx, reqs, bo)

	for i := range reqs {
		le, fe := labeled[i].Err, filtered[i].Err
		if (le == nil) != (fe == nil) || (le != nil && le.Error() != fe.Error()) {
			t.Fatalf("request %d (%v): error mismatch: labeled=%v filter=%v", i, reqs[i].Algorithm, le, fe)
		}
		if le != nil {
			continue
		}
		lr, fr := labeled[i].Response, filtered[i].Response
		if lr.Reachable != fr.Reachable || lr.Stats != fr.Stats ||
			lr.SatisfyingVertices != fr.SatisfyingVertices || lr.Algorithm != fr.Algorithm {
			t.Errorf("request %d (%v): labeled {reach=%v stats=%+v vs=%d} != filter {reach=%v stats=%+v vs=%d}",
				i, reqs[i].Algorithm,
				lr.Reachable, lr.Stats, lr.SatisfyingVertices,
				fr.Reachable, fr.Stats, fr.SatisfyingVertices)
		}
	}

	// The same batch answered twice on the same engine must also agree —
	// guards against scratch-pool state leaking between concurrent runs.
	again := engLabeled.QueryBatch(ctx, reqs, bo)
	for i := range reqs {
		if labeled[i].Err != nil {
			continue
		}
		if labeled[i].Response.Reachable != again[i].Response.Reachable ||
			labeled[i].Response.Stats != again[i].Response.Stats {
			t.Errorf("request %d: labeled engine not deterministic across runs", i)
		}
	}
}
