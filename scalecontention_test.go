package lscr

// The scale contention test is the race-detector proof behind the scale
// benchmark tier: N goroutines hammer one engine built on a
// million-plus-edge LUBM graph with mixed algorithms (INS, UIS, UIS*,
// conjunctive) and witness reconstruction, and every answer must match
// the serial oracle's fingerprint. The graph is big enough to cross the
// engine's scratch-prewarm threshold, so the pooled epoch-stamped
// scratch paths (close map, frontier stamps, witness visited/parent
// tables) are all exercised under real contention.
//
// CI runs it under -race with LSCR_SCALE_TEST_EDGES set small (the race
// detector's ~10× slowdown makes the full graph impractical there); the
// plain test run uses the full ≥1M-edge default.

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"sync"
	"testing"

	"lscr/internal/graph"
	"lscr/internal/lubm"
)

// scaleTestEdges returns the edge target for the contended-reader test:
// the scale tier's default, overridable with LSCR_SCALE_TEST_EDGES for
// hosts (or race runs) where generating millions of edges is too slow.
func scaleTestEdges(t *testing.T) int {
	if v := os.Getenv("LSCR_SCALE_TEST_EDGES"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			t.Fatalf("bad LSCR_SCALE_TEST_EDGES=%q: %v", v, err)
		}
		return n
	}
	return 1_200_000
}

// scaleFingerprint is the serial oracle's answer for one query.
type scaleFingerprint struct {
	reachable  bool
	satisfying int
}

func TestScaleContendedReaders(t *testing.T) {
	if testing.Short() {
		t.Skip("generates and indexes a >=1M-edge graph (tune with LSCR_SCALE_TEST_EDGES)")
	}
	edges := scaleTestEdges(t)
	cfg := lubm.ConfigForEdges(edges)
	g := lubm.Generate(cfg)
	if g.NumEdges() < edges {
		t.Fatalf("generator produced %d edges, want >= %d", g.NumEdges(), edges)
	}
	eng := NewEngine(FromGraph(g), Options{IndexSeed: 1})

	// A mixed workload over the real constraint vocabulary: random vertex
	// pairs, 2–3-label sets (narrow enough that the serial oracle stays
	// fast even for UIS), every algorithm represented. The conjunctive
	// entries pair adjacent Table 3 constraints.
	consts := lubm.Constraints()
	rng := rand.New(rand.NewSource(42))
	const nQueries = 24
	reqs := make([]Request, nQueries)
	algos := []Algorithm{INS, UIS, UISStar, Conjunctive}
	for i := range reqs {
		labels := make([]string, 2+rng.Intn(2))
		for j := range labels {
			labels[j] = g.LabelName(graph.Label(rng.Intn(g.NumLabels())))
		}
		req := Request{
			Source:    g.VertexName(graph.VertexID(rng.Intn(g.NumVertices()))),
			Target:    g.VertexName(graph.VertexID(rng.Intn(g.NumVertices()))),
			Labels:    labels,
			Algorithm: algos[i%len(algos)],
		}
		switch req.Algorithm {
		case INS:
			// INS prunes through V(S,G), so it can afford the full label
			// universe — the configuration the scale benchmark sweeps.
			req.Labels = nil
			req.Constraint = consts[i%len(consts)].SPARQL
		case Conjunctive:
			req.Constraints = []string{
				consts[i%len(consts)].SPARQL,
				consts[(i+1)%len(consts)].SPARQL,
			}
		default:
			req.Constraint = consts[i%len(consts)].SPARQL
		}
		reqs[i] = req
	}

	// Serial oracle pass.
	ctx := context.Background()
	oracle := make([]scaleFingerprint, len(reqs))
	for i, req := range reqs {
		resp, err := eng.Query(ctx, req)
		if err != nil {
			t.Fatalf("serial oracle query %d: %v", i, err)
		}
		oracle[i] = scaleFingerprint{reachable: resp.Reachable, satisfying: resp.SatisfyingVertices}
	}

	// Contended pass: every goroutine replays the whole workload,
	// true-answer queries alternating through the witness path.
	const goroutines = 8
	const rounds = 2
	var wg sync.WaitGroup
	errc := make(chan error, goroutines)
	for gi := 0; gi < goroutines; gi++ {
		wg.Add(1)
		go func(gi int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for i, req := range reqs {
					req.WantWitness = oracle[i].reachable && (gi+r)%2 == 0
					resp, err := eng.Query(ctx, req)
					if err == nil && req.WantWitness && resp.Witness == nil {
						err = fmt.Errorf("true %v answer without witness", req.Algorithm)
					}
					if err != nil {
						errc <- fmt.Errorf("goroutine %d round %d query %d: %v", gi, r, i, err)
						return
					}
					got := scaleFingerprint{reachable: resp.Reachable, satisfying: resp.SatisfyingVertices}
					if got != oracle[i] {
						errc <- fmt.Errorf("goroutine %d round %d query %d: got %+v, oracle %+v",
							gi, r, i, got, oracle[i])
						return
					}
				}
			}
		}(gi)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}
