package bench

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"time"

	pub "lscr"
	"lscr/internal/graph"
	"lscr/internal/lubm"
	"lscr/internal/workload"
)

// RunThroughput measures end-to-end QPS through the public API: it
// builds an Engine over the cached D1 KG and pushes one S1 workload
// through Engine.QueryBatch at fan-out 1 (the serial baseline) and at
// the requested concurrency (0 = all cores), checking the answers
// agree. Unlike RunParallel — which times the core algorithm — this
// path includes the name resolution and SPARQL compilation every real
// request pays. cmd/lscrbench exposes it as -exp throughput.
func RunThroughput(w io.Writer, cfg Config, concurrency int) error {
	cfg = cfg.withDefaults()
	if concurrency <= 0 {
		concurrency = runtime.GOMAXPROCS(0)
	}
	spec := DatasetSpec{Name: "D1", Universities: 1 * cfg.Scale}
	g := buildDataset(spec, cfg.Seed)
	cons, vs, err := compileConstraint(g, "S1")
	if err != nil {
		return err
	}
	trueQ, falseQ, err := workload.Generate(g, cons, vs, workload.Config{
		Count: cfg.QueriesPerGroup, Seed: cfg.Seed,
	})
	if err != nil {
		return err
	}

	// The workload generator emits compiled internal queries; map them
	// back to names so the batch exercises the full public path.
	nc, _ := lubm.Constraint("S1")
	var qs []pub.Request
	var expected []bool
	for _, q := range append(append([]workload.Query{}, trueQ...), falseQ...) {
		var labels []string
		for l := 0; l < g.NumLabels(); l++ {
			if q.Labels.Contains(graph.Label(l)) {
				labels = append(labels, g.LabelName(graph.Label(l)))
			}
		}
		qs = append(qs, pub.Request{
			Source:     g.VertexName(q.Source),
			Target:     g.VertexName(q.Target),
			Labels:     labels,
			Constraint: nc.SPARQL,
		})
		expected = append(expected, q.Expected)
	}
	if len(qs) == 0 {
		return fmt.Errorf("bench: empty throughput workload")
	}

	kg := pub.FromGraph(g)
	start := time.Now()
	eng := pub.NewEngine(kg, pub.Options{IndexSeed: cfg.Seed})
	buildSecs := time.Since(start).Seconds()

	ctx := context.Background()
	start = time.Now()
	serial := eng.QueryBatch(ctx, qs, pub.BatchOptions{Concurrency: 1})
	serialSecs := time.Since(start).Seconds()
	start = time.Now()
	batch := eng.QueryBatch(ctx, qs, pub.BatchOptions{Concurrency: concurrency})
	batchSecs := time.Since(start).Seconds()

	for i := range qs {
		if serial[i].Err != nil {
			return fmt.Errorf("bench: throughput query %d: %w", i, serial[i].Err)
		}
		if batch[i].Err != nil {
			return fmt.Errorf("bench: concurrent throughput query %d: %w", i, batch[i].Err)
		}
		if serial[i].Response.Reachable != expected[i] || batch[i].Response.Reachable != expected[i] {
			return fmt.Errorf("bench: throughput query %d answered wrongly (serial=%v batch=%v want=%v)",
				i, serial[i].Response.Reachable, batch[i].Response.Reachable, expected[i])
		}
	}
	fmt.Fprintf(w, "throughput on %s (|V|=%d |E|=%d), %d queries, GOMAXPROCS=%d\n",
		spec.Name, g.NumVertices(), g.NumEdges(), len(qs), runtime.GOMAXPROCS(0))
	fmt.Fprintf(w, "index build             %8.3fs\n", buildSecs)
	fmt.Fprintf(w, "QueryBatch concurrency 1 %7.0f qps\n", float64(len(qs))/serialSecs)
	fmt.Fprintf(w, "QueryBatch concurrency %d %7.0f qps (%.2fx)\n",
		concurrency, float64(len(qs))/batchSecs, serialSecs/batchSecs)
	fmt.Fprintln(w, "answers identical and correct across fan-outs")
	return nil
}
