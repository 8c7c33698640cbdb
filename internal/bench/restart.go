package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	pub "lscr"
	"lscr/internal/graph"
	"lscr/internal/lubm"
)

// The restart harness measures the persistence tentpole: cold-boot
// latency of the three ways an engine can come up on the same KG.
//
//   - rebuild: parse a triples file, re-intern every name and edge,
//     build the local index from scratch — what lscrd -kg without
//     -data does on every boot;
//   - segment: lscr.Open on a sealed store — mmap the newest segment
//     and serve its CSR and index in place, no parse, no index build;
//   - recovery: lscr.Open after a simulated kill -9 mid-write-workload —
//     the segment open plus a WAL-tail replay through the normal commit
//     path.
//
// Boot latency is also reported as boots/sec (*_boot_qps) so
// scripts/benchdiff guards the trajectory like every other BENCH_*
// artifact. The harness is also the correctness smoke: it exits
// nonzero unless the segment-booted engine answers the whole workload
// bit-identically to the rebuilt one (INS Stats included) and the
// crash-recovered engine matches a rebuild on the final edge set.

// RestartReport is the machine-readable baseline (BENCH_restart.json).
type RestartReport struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	Dataset    string `json:"dataset"`
	Vertices   int    `json:"vertices"`
	Edges      int    `json:"edges"`
	Queries    int    `json:"queries"`

	// Batches × OpsPerBatch mutations form the unsealed WAL tail the
	// recovery boot replays.
	Batches     int `json:"batches"`
	OpsPerBatch int `json:"ops_per_batch"`

	// Cold-boot latency (best of restartBootIters) per path, and the
	// headline ratio rebuild/segment.
	RebuildBootMS  float64 `json:"rebuild_boot_ms"`
	SegmentBootMS  float64 `json:"segment_boot_ms"`
	RecoveryBootMS float64 `json:"recovery_boot_ms"`
	SpeedupX       float64 `json:"restart_speedup_x"`

	// The same figures as boots/sec, the *qps* convention benchdiff
	// tracks.
	RebuildBootQPS  float64 `json:"rebuild_boot_qps"`
	SegmentBootQPS  float64 `json:"segment_boot_qps"`
	RecoveryBootQPS float64 `json:"recovery_boot_qps"`

	// Identical: segment-boot answers were bit-identical (Reachable,
	// Stats, |V(S,G)|) to the rebuilt engine's. Recovered: the
	// crash-recovered engine matched a from-scratch rebuild on the
	// final edge set (INS compared by answer — its index is the
	// maintained one, not a fresh build).
	Identical bool `json:"identical"`
	Recovered bool `json:"recovered"`
}

// restartBootIters boots each path this many times and keeps the best —
// cold-cache jitter is one-sided noise.
const restartBootIters = 3

// restartRequests rotates the paper's constraints over random pairs and
// all four algorithms, like the mutate harness.
func restartRequests(g *graph.Graph, cfg Config, n int) []pub.Request {
	consts := lubm.Constraints()
	r := rng(cfg.Seed, "restart-queries")
	algos := []pub.Algorithm{pub.INS, pub.UIS, pub.UISStar, pub.Conjunctive}
	reqs := make([]pub.Request, n)
	for i := range reqs {
		labels := make([]string, 2)
		for j := range labels {
			labels[j] = g.LabelName(graph.Label(r.Intn(g.NumLabels())))
		}
		req := pub.Request{
			Source:    g.VertexName(graph.VertexID(r.Intn(g.NumVertices()))),
			Target:    g.VertexName(graph.VertexID(r.Intn(g.NumVertices()))),
			Labels:    labels,
			Algorithm: algos[i%len(algos)],
		}
		if req.Algorithm == pub.Conjunctive {
			req.Constraints = []string{consts[i%len(consts)].SPARQL, consts[(i+1)%len(consts)].SPARQL}
		} else {
			req.Constraint = consts[i%len(consts)].SPARQL
		}
		reqs[i] = req
	}
	return reqs
}

// MeasureRestart times the three boot paths and runs both identity
// checks, returning the report.
func MeasureRestart(cfg Config, concurrency int) (*RestartReport, error) {
	cfg = cfg.withDefaults()
	if concurrency <= 0 {
		concurrency = runtime.GOMAXPROCS(0)
	}
	spec := DatasetSpec{Name: "D1", Universities: 1 * cfg.Scale}
	// The dataset goes through the Dump → Load round trip once up front,
	// so the store is sealed from exactly the graph the rebuild boot
	// parses back (same interning order, same schema).
	var triples bytes.Buffer
	if err := pub.FromGraph(buildDataset(spec, cfg.Seed)).Dump(&triples); err != nil {
		return nil, err
	}
	kg, err := pub.Load(bytes.NewReader(triples.Bytes()))
	if err != nil {
		return nil, err
	}
	g := kg.Graph()
	ctx := context.Background()

	rep := &RestartReport{
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Dataset:     spec.Name,
		Vertices:    g.NumVertices(),
		Edges:       g.NumEdges(),
		Queries:     cfg.QueriesPerGroup * 10,
		Batches:     cfg.QueriesPerGroup * 2,
		OpsPerBatch: 16,
	}
	reqs := restartRequests(g, cfg, rep.Queries)
	opts := pub.Options{IndexSeed: cfg.Seed, CompactAfter: -1}
	bo := pub.BatchOptions{Concurrency: concurrency}

	dir, err := os.MkdirTemp("", "lscr-restart-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	// Seal the store once (this is the cost segments amortise away) and
	// write the triples file the rebuild path boots from.
	creator, err := pub.Create(dir, kg, opts)
	if err != nil {
		return nil, fmt.Errorf("bench: create store: %w", err)
	}
	if err := creator.Close(); err != nil {
		return nil, err
	}
	triplesPath := filepath.Join(dir, "kg.nt")
	if err := os.WriteFile(triplesPath, triples.Bytes(), 0o644); err != nil {
		return nil, err
	}

	// Boot path 1: parse + rebuild, the cold start without a store.
	var rebuilt *pub.Engine
	rep.RebuildBootMS, err = bestOfBoots(func() (func() error, error) {
		data, err := os.ReadFile(triplesPath)
		if err != nil {
			return nil, err
		}
		kg, err := pub.Load(bytes.NewReader(data))
		if err != nil {
			return nil, err
		}
		rebuilt = pub.NewEngine(kg, opts)
		return nil, nil
	})
	if err != nil {
		return nil, fmt.Errorf("bench: rebuild boot: %w", err)
	}

	// Boot path 2: mmap the sealed segment.
	var opened *pub.Engine
	rep.SegmentBootMS, err = bestOfBoots(func() (func() error, error) {
		e, err := pub.Open(dir, opts)
		if err != nil {
			return nil, err
		}
		prev := opened
		opened = e
		if prev != nil {
			return prev.Close, nil
		}
		return nil, nil
	})
	if err != nil {
		return nil, fmt.Errorf("bench: segment boot: %w", err)
	}

	// Identity: the mmap'd engine must be bit-identical to the rebuilt
	// one — Reachable, Stats and |V(S,G)| on every request, INS included.
	rep.Identical = true
	segAns := opened.QueryBatch(ctx, reqs, bo)
	refAns := rebuilt.QueryBatch(ctx, reqs, bo)
	for i := range reqs {
		if segAns[i].Err != nil {
			return nil, fmt.Errorf("bench: segment query %d: %w", i, segAns[i].Err)
		}
		if refAns[i].Err != nil {
			return nil, fmt.Errorf("bench: rebuilt query %d: %w", i, refAns[i].Err)
		}
		a, b := segAns[i].Response, refAns[i].Response
		if a.Reachable != b.Reachable || a.Stats != b.Stats || a.SatisfyingVertices != b.SatisfyingVertices {
			rep.Identical = false
		}
	}

	// Kill mid-write-workload: commit the script durably, then abandon
	// the engine without Close — exactly the files a kill -9 leaves.
	writer := opened
	opened = nil
	for bi, batch := range mutateScript(g, cfg.Seed, rep.Batches, rep.OpsPerBatch) {
		if _, err := writer.Apply(ctx, batch); err != nil {
			return nil, fmt.Errorf("bench: batch %d: %w", bi, err)
		}
	}

	// Boot path 3: segment open + WAL-tail replay. Every iteration
	// replays the same unsealed tail (nothing rotates it).
	var recovered *pub.Engine
	rep.RecoveryBootMS, err = bestOfBoots(func() (func() error, error) {
		e, err := pub.Open(dir, opts)
		if err != nil {
			return nil, err
		}
		prev := recovered
		recovered = e
		if prev != nil {
			return prev.Close, nil
		}
		return nil, nil
	})
	if err != nil {
		return nil, fmt.Errorf("bench: recovery boot: %w", err)
	}
	defer recovered.Close()

	// The recovered engine must match a from-scratch rebuild on the
	// final edge set (segment round-trip → fresh index, sharing no
	// state). INS compares by answer: recovery maintains the sealed index
	// instead of rebuilding it.
	finalG, release, err := viaSegment(recovered.KG().Graph())
	if err != nil {
		return nil, err
	}
	defer release()
	final := pub.NewEngine(pub.FromGraph(finalG), opts)
	rep.Recovered = true
	recAns := recovered.QueryBatch(ctx, reqs, bo)
	finAns := final.QueryBatch(ctx, reqs, bo)
	for i := range reqs {
		if recAns[i].Err != nil {
			return nil, fmt.Errorf("bench: recovered query %d: %w", i, recAns[i].Err)
		}
		if finAns[i].Err != nil {
			return nil, fmt.Errorf("bench: final rebuild query %d: %w", i, finAns[i].Err)
		}
		a, b := recAns[i].Response, finAns[i].Response
		if a.Reachable != b.Reachable {
			rep.Recovered = false
		}
		if reqs[i].Algorithm != pub.INS && (a.Stats != b.Stats || a.SatisfyingVertices != b.SatisfyingVertices) {
			rep.Recovered = false
		}
	}

	rep.SpeedupX = rep.RebuildBootMS / rep.SegmentBootMS
	rep.RebuildBootQPS = 1000 / rep.RebuildBootMS
	rep.SegmentBootQPS = 1000 / rep.SegmentBootMS
	rep.RecoveryBootQPS = 1000 / rep.RecoveryBootMS
	return rep, nil
}

// bestOfBoots runs boot restartBootIters times and returns the fastest
// wall-clock in milliseconds. boot may return a cleanup func that runs
// after the clock stops (closing the previous iteration's engine).
func bestOfBoots(boot func() (func() error, error)) (float64, error) {
	best := 0.0
	for i := 0; i < restartBootIters; i++ {
		start := time.Now()
		cleanup, err := boot()
		elapsed := time.Since(start).Seconds() * 1000
		if err != nil {
			return 0, err
		}
		if cleanup != nil {
			if err := cleanup(); err != nil {
				return 0, err
			}
		}
		if i == 0 || elapsed < best {
			best = elapsed
		}
	}
	return best, nil
}

// RunRestart prints the cold-boot report (cmd/lscrbench -exp restart)
// and fails unless both identity checks held.
func RunRestart(w io.Writer, cfg Config, concurrency int) error {
	rep, err := MeasureRestart(cfg, concurrency)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "cold boot on %s (|V|=%d |E|=%d), %d-batch WAL tail x %d ops\n",
		rep.Dataset, rep.Vertices, rep.Edges, rep.Batches, rep.OpsPerBatch)
	fmt.Fprintf(w, "parse + index rebuild  %10.2f ms\n", rep.RebuildBootMS)
	fmt.Fprintf(w, "segment open (mmap)    %10.2f ms   (%.0fx faster)\n", rep.SegmentBootMS, rep.SpeedupX)
	fmt.Fprintf(w, "crash recovery         %10.2f ms   (open + %d-batch replay)\n", rep.RecoveryBootMS, rep.Batches)
	fmt.Fprintf(w, "segment-vs-rebuilt answers identical: %v\n", rep.Identical)
	fmt.Fprintf(w, "crash-recovered answers correct:      %v\n", rep.Recovered)
	return restartVerdict(rep)
}

// RunRestartJSON writes the report as indented JSON — the format
// committed to BENCH_restart.json so later PRs can track the trajectory.
func RunRestartJSON(w io.Writer, cfg Config, concurrency int) error {
	rep, err := MeasureRestart(cfg, concurrency)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		return err
	}
	return restartVerdict(rep)
}

func restartVerdict(rep *RestartReport) error {
	if !rep.Identical {
		return fmt.Errorf("bench: segment-booted and rebuilt answers diverged")
	}
	if !rep.Recovered {
		return fmt.Errorf("bench: crash-recovered answers diverged from rebuild on the final edge set")
	}
	return nil
}
