package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	pub "lscr"
	"lscr/internal/graph"
	"lscr/internal/lubm"
	"lscr/internal/segment"
)

// The mutate harness measures the live-update tentpole: Engine.Apply
// commits mutation batches into the delta overlay while readers keep
// querying immutable epochs, and the background compactor periodically
// folds the overlay into a fresh CSR + index. The harness reports how
// much read throughput survives a concurrent writer (reads are never
// blocked — the retention gap is pure cache/CPU contention) and the
// write throughput itself, then proves the serving answers: after a
// final compaction the live engine must answer the whole workload
// bit-identically to an engine rebuilt from scratch on the final edge
// set (segment round-trip → fresh index, see viaSegment). cmd/lscrbench
// exposes it as -exp mutate (text) and -exp mutate-json (the
// BENCH_mutate.json trajectory format), and the CI smoke exits nonzero
// unless the answers are identical.

// MutateReport is the machine-readable baseline (BENCH_mutate.json).
type MutateReport struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	Dataset    string `json:"dataset"`
	Vertices   int    `json:"vertices"`
	Edges      int    `json:"edges"`

	// Queries is the read-workload size per measured pass; Readers the
	// concurrent reader goroutines during the mixed phase.
	Queries int `json:"queries"`
	Readers int `json:"readers"`

	// Batches × OpsPerBatch edge mutations were applied (≈2/3 inserts,
	// ≈1/3 deletes, some through brand-new vertices); CompactAfter is
	// the overlay threshold the background compactor ran under.
	Batches      int `json:"batches"`
	OpsPerBatch  int `json:"ops_per_batch"`
	CompactAfter int `json:"compact_after"`

	// ReadOnlyQPS is the baseline read throughput with no writer;
	// MixedReadQPS the read throughput while the writer was committing;
	// ReadRetention their ratio (1.0 = mutations are free for readers).
	ReadOnlyQPS   float64 `json:"read_only_qps"`
	MixedReadQPS  float64 `json:"mixed_read_qps"`
	ReadRetention float64 `json:"read_retention"`

	// WriteOpsPerSec is the committed mutation throughput during the
	// mixed phase; Compactions counts background folds that landed.
	WriteOpsPerSec float64 `json:"write_ops_per_sec"`
	Compactions    int64   `json:"compactions"`

	// FinalVertices/FinalEdges describe the mutated graph.
	FinalVertices int `json:"final_vertices"`
	FinalEdges    int `json:"final_edges"`

	// Identical confirms the mutated engine (after a final compaction)
	// answered the whole workload bit-identically — Reachable, passed
	// vertices, |V(S,G)| — to an engine rebuilt from scratch on the
	// final edge set.
	Identical bool `json:"identical"`
}

// mutateScript precomputes the batches: inserts between random existing
// vertices (sometimes via fresh ones) and deletes drawn from a pool of
// known-surviving instances, so every batch validates.
func mutateScript(g *graph.Graph, seed int64, batches, opsPerBatch int) [][]pub.Mutation {
	r := rng(seed, "mutate")
	// The deletable pool: every base instance by name, appended with the
	// script's own inserts; a delete removes one pool entry.
	type edge struct{ s, l, t string }
	var pool []edge
	g.Triples(func(t graph.Triple) bool {
		pool = append(pool, edge{g.VertexName(t.Subject), g.LabelName(t.Label), g.VertexName(t.Object)})
		return true
	})
	script := make([][]pub.Mutation, batches)
	for bi := range script {
		batch := make([]pub.Mutation, 0, opsPerBatch)
		for oi := 0; oi < opsPerBatch; oi++ {
			if len(pool) > 0 && oi%3 == 2 {
				i := r.Intn(len(pool))
				e := pool[i]
				pool[i] = pool[len(pool)-1]
				pool = pool[:len(pool)-1]
				batch = append(batch, pub.Mutation{Op: pub.OpDeleteEdge, Subject: e.s, Label: e.l, Object: e.t})
				continue
			}
			s := g.VertexName(graph.VertexID(r.Intn(g.NumVertices())))
			if oi%5 == 4 {
				s = fmt.Sprintf("live_%d_%d", bi, oi)
			}
			l := g.LabelName(graph.Label(r.Intn(g.NumLabels())))
			t := g.VertexName(graph.VertexID(r.Intn(g.NumVertices())))
			batch = append(batch, pub.Mutation{Op: pub.OpAddEdge, Subject: s, Label: l, Object: t})
			pool = append(pool, edge{s, l, t})
		}
		script[bi] = batch
	}
	return script
}

// MeasureMutate runs the mixed read/write workload and the
// mutated-vs-rebuilt identity check, returning the report.
func MeasureMutate(cfg Config, concurrency int) (*MutateReport, error) {
	cfg = cfg.withDefaults()
	if concurrency <= 0 {
		concurrency = runtime.GOMAXPROCS(0)
	}
	spec := DatasetSpec{Name: "D1", Universities: 1 * cfg.Scale}
	g := buildDataset(spec, cfg.Seed)
	ctx := context.Background()

	rep := &MutateReport{
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		Dataset:      spec.Name,
		Vertices:     g.NumVertices(),
		Edges:        g.NumEdges(),
		Readers:      concurrency,
		Batches:      cfg.QueriesPerGroup * 5,
		OpsPerBatch:  16,
		CompactAfter: 256,
	}

	// The read workload rotates the paper's constraints over random
	// pairs and all four algorithms.
	consts := lubm.Constraints()
	r := rng(cfg.Seed, "mutate-queries")
	rep.Queries = cfg.QueriesPerGroup * 20
	algos := []pub.Algorithm{pub.INS, pub.UIS, pub.UISStar, pub.Conjunctive}
	reqs := make([]pub.Request, rep.Queries)
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

	eng := pub.NewEngine(pub.FromGraph(g), pub.Options{
		IndexSeed:    cfg.Seed,
		CompactAfter: rep.CompactAfter,
	})
	script := mutateScript(g, cfg.Seed, rep.Batches, rep.OpsPerBatch)

	// Phase 1: read-only baseline.
	start := time.Now()
	for _, o := range eng.QueryBatch(ctx, reqs, pub.BatchOptions{Concurrency: concurrency}) {
		if o.Err != nil {
			return nil, fmt.Errorf("bench: baseline query: %w", o.Err)
		}
	}
	rep.ReadOnlyQPS = float64(len(reqs)) / time.Since(start).Seconds()

	// Phase 2: readers loop over the workload while the writer commits
	// every batch; reads during the write window count toward MixedReadQPS.
	var (
		reads     atomic.Int64
		readErr   atomic.Value
		stop      = make(chan struct{})
		wgReaders sync.WaitGroup
	)
	for w := 0; w < concurrency; w++ {
		wgReaders.Add(1)
		go func(w int) {
			defer wgReaders.Done()
			for i := w; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := eng.Query(ctx, reqs[i%len(reqs)]); err != nil {
					readErr.Store(err)
					return
				}
				reads.Add(1)
			}
		}(w)
	}
	start = time.Now()
	for _, batch := range script {
		if _, err := eng.Apply(ctx, batch); err != nil {
			close(stop)
			wgReaders.Wait()
			return nil, fmt.Errorf("bench: apply: %w", err)
		}
	}
	writeSecs := time.Since(start).Seconds()
	close(stop)
	wgReaders.Wait()
	if err, _ := readErr.Load().(error); err != nil {
		return nil, fmt.Errorf("bench: read during writes: %w", err)
	}
	rep.MixedReadQPS = float64(reads.Load()) / writeSecs
	rep.ReadRetention = rep.MixedReadQPS / rep.ReadOnlyQPS
	rep.WriteOpsPerSec = float64(rep.Batches*rep.OpsPerBatch) / writeSecs

	// Phase 3: fold everything, then prove the serving answers against a
	// from-scratch rebuild on the final edge set. The segment round-trip
	// decodes the graph from disk, so the rebuilt engine shares no state
	// with the live one.
	if _, err := eng.Compact(ctx); err != nil {
		return nil, fmt.Errorf("bench: final compaction: %w", err)
	}
	rep.Compactions = eng.Epoch().Compactions
	kg := eng.KG()
	rep.FinalVertices, rep.FinalEdges = kg.NumVertices(), kg.NumEdges()

	rebuiltG, release, err := viaSegment(kg.Graph())
	if err != nil {
		return nil, err
	}
	defer release()
	rebuilt := pub.NewEngine(pub.FromGraph(rebuiltG), pub.Options{IndexSeed: cfg.Seed})

	rep.Identical = true
	live := eng.QueryBatch(ctx, reqs, pub.BatchOptions{Concurrency: concurrency})
	ref := rebuilt.QueryBatch(ctx, reqs, pub.BatchOptions{Concurrency: concurrency})
	for i := range reqs {
		if live[i].Err != nil {
			return nil, fmt.Errorf("bench: live query %d: %w", i, live[i].Err)
		}
		if ref[i].Err != nil {
			return nil, fmt.Errorf("bench: rebuilt query %d: %w", i, ref[i].Err)
		}
		a, b := live[i].Response, ref[i].Response
		if a.Reachable != b.Reachable || a.Stats != b.Stats || a.SatisfyingVertices != b.SatisfyingVertices {
			rep.Identical = false
		}
	}
	return rep, nil
}

// viaSegment round-trips g's compaction through the segment format in a
// fresh temp directory and returns the decoded graph, which shares no
// memory with g — the identity oracles' independent copy of the final
// edge set. release unmaps the segment and removes the directory; call
// it once nothing uses the graph any more.
func viaSegment(g *graph.Graph) (_ *graph.Graph, release func(), err error) {
	dir, err := os.MkdirTemp("", "lscr-oracle-")
	if err != nil {
		return nil, nil, err
	}
	path, err := segment.Write(dir, 0, g.Compact(), nil, 0, 0)
	if err == nil {
		var seg *segment.Segment
		if seg, err = segment.Open(path); err == nil {
			return seg.Graph, func() { seg.Close(); os.RemoveAll(dir) }, nil
		}
	}
	os.RemoveAll(dir)
	return nil, nil, err
}

// RunMutate prints the mixed-workload report (cmd/lscrbench -exp mutate)
// and fails unless mutated-vs-rebuilt answers are identical.
func RunMutate(w io.Writer, cfg Config, concurrency int) error {
	rep, err := MeasureMutate(cfg, concurrency)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "live mutations on %s (|V|=%d |E|=%d): %d batches x %d ops, compact-after %d, %d readers\n",
		rep.Dataset, rep.Vertices, rep.Edges, rep.Batches, rep.OpsPerBatch, rep.CompactAfter, rep.Readers)
	fmt.Fprintf(w, "read-only              %8.0f qps\n", rep.ReadOnlyQPS)
	fmt.Fprintf(w, "reads during writes    %8.0f qps  (%.0f%% retained)\n", rep.MixedReadQPS, rep.ReadRetention*100)
	fmt.Fprintf(w, "write throughput       %8.0f ops/s, %d background compactions\n", rep.WriteOpsPerSec, rep.Compactions)
	fmt.Fprintf(w, "final graph            |V|=%d |E|=%d\n", rep.FinalVertices, rep.FinalEdges)
	fmt.Fprintf(w, "mutated-vs-rebuilt answers identical: %v\n", rep.Identical)
	if !rep.Identical {
		return fmt.Errorf("bench: mutated and rebuilt answers diverged")
	}
	return nil
}

// RunMutateJSON writes the report as indented JSON — the format
// committed to BENCH_mutate.json so later PRs can track the trajectory.
func RunMutateJSON(w io.Writer, cfg Config, concurrency int) error {
	rep, err := MeasureMutate(cfg, concurrency)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		return err
	}
	if !rep.Identical {
		return fmt.Errorf("bench: mutated and rebuilt answers diverged")
	}
	return nil
}
