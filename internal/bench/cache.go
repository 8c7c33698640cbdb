package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"time"

	pub "lscr"
	"lscr/internal/graph"
	"lscr/internal/lubm"
)

// The cache-speedup harness measures the constraint-memoization tentpole:
// production workloads repeat the same substructure constraints
// constantly, so the engine caches the compiled constraint and its
// V(S,G) per constraint text. Cold = a cache-disabled engine paying
// sparql.Parse + Compile + MatchAll on every query; warm = a cached
// engine primed with one pass. Both push the identical workload through
// Engine.QueryBatch and must produce identical answers. cmd/lscrbench
// exposes it as -exp cachespeedup (text) and -exp cachespeedup-json
// (the BENCH_cache.json trajectory format).

// CacheReport is the machine-readable baseline (BENCH_cache.json).
type CacheReport struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	Dataset    string `json:"dataset"`
	Vertices   int    `json:"vertices"`
	Edges      int    `json:"edges"`

	// Queries is the workload size; DistinctConstraints how many unique
	// constraint texts it rotates through (Table 3's S1–S5), so the warm
	// hit rate is (Queries-Distinct)/Queries per pass.
	Queries             int `json:"queries"`
	DistinctConstraints int `json:"distinct_constraints"`
	Concurrency         int `json:"concurrency"`

	ColdQPS float64 `json:"cold_qps"`
	WarmQPS float64 `json:"warm_qps"`
	// Speedup is WarmQPS / ColdQPS — the amortization win of memoizing
	// constraint compilation.
	Speedup float64 `json:"speedup"`

	CacheHits    int64 `json:"cache_hits"`
	CacheMisses  int64 `json:"cache_misses"`
	CacheEntries int   `json:"cache_entries"`

	// Identical confirms the cached engine returned exactly the uncached
	// answers (Reachable and SatisfyingVertices per query).
	Identical bool `json:"identical"`
}

// MeasureCacheSpeedup runs the warm-vs-cold comparison and returns the
// report.
func MeasureCacheSpeedup(cfg Config, concurrency int) (*CacheReport, error) {
	cfg = cfg.withDefaults()
	if concurrency <= 0 {
		concurrency = runtime.GOMAXPROCS(0)
	}
	spec := DatasetSpec{Name: "D1", Universities: 1 * cfg.Scale}
	g := buildDataset(spec, cfg.Seed)

	// The workload rotates the paper's S1–S5 over random vertex pairs:
	// every constraint repeats Queries/5 times, which is the access
	// pattern the cache exists for. Each query carries a random 2-label
	// constraint — the paper's query model restricts labels, and narrow
	// label sets keep the search term small relative to the per-query
	// compile term the cache amortizes.
	consts := lubm.Constraints()
	r := rng(cfg.Seed, "cachespeedup")
	n := cfg.QueriesPerGroup * 40
	qs := make([]pub.Request, n)
	for i := range qs {
		labels := make([]string, 2)
		for j := range labels {
			labels[j] = g.LabelName(graph.Label(r.Intn(g.NumLabels())))
		}
		qs[i] = pub.Request{
			Source:     g.VertexName(graph.VertexID(r.Intn(g.NumVertices()))),
			Target:     g.VertexName(graph.VertexID(r.Intn(g.NumVertices()))),
			Labels:     labels,
			Constraint: consts[i%len(consts)].SPARQL,
		}
	}

	// Both engines build the same index (the build is deterministic for a
	// fixed seed), so the comparison isolates the cache.
	kg := pub.FromGraph(g)
	cold := pub.NewEngine(kg, pub.Options{IndexSeed: cfg.Seed, ConstraintCacheSize: -1})
	warm := pub.NewEngine(kg, pub.Options{IndexSeed: cfg.Seed})

	ctx := context.Background()
	bo := pub.BatchOptions{Concurrency: concurrency}
	start := time.Now()
	coldRes := cold.QueryBatch(ctx, qs, bo)
	coldSecs := time.Since(start).Seconds()

	warm.QueryBatch(ctx, qs, bo) // priming pass: compile each distinct constraint once
	start = time.Now()
	warmRes := warm.QueryBatch(ctx, qs, bo)
	warmSecs := time.Since(start).Seconds()

	rep := &CacheReport{
		GOMAXPROCS:          runtime.GOMAXPROCS(0),
		Dataset:             spec.Name,
		Vertices:            g.NumVertices(),
		Edges:               g.NumEdges(),
		Queries:             n,
		DistinctConstraints: len(consts),
		Concurrency:         concurrency,
		ColdQPS:             float64(n) / coldSecs,
		WarmQPS:             float64(n) / warmSecs,
		Identical:           true,
	}
	rep.Speedup = rep.WarmQPS / rep.ColdQPS
	st := warm.CacheStats()
	rep.CacheHits, rep.CacheMisses, rep.CacheEntries = st.Hits, st.Misses, st.Entries

	for i := range qs {
		if coldRes[i].Err != nil {
			return nil, fmt.Errorf("bench: cold query %d: %w", i, coldRes[i].Err)
		}
		if warmRes[i].Err != nil {
			return nil, fmt.Errorf("bench: warm query %d: %w", i, warmRes[i].Err)
		}
		if coldRes[i].Response.Reachable != warmRes[i].Response.Reachable ||
			coldRes[i].Response.SatisfyingVertices != warmRes[i].Response.SatisfyingVertices {
			rep.Identical = false
		}
	}
	return rep, nil
}

// RunCacheSpeedup prints the comparison (cmd/lscrbench -exp cachespeedup).
func RunCacheSpeedup(w io.Writer, cfg Config, concurrency int) error {
	rep, err := MeasureCacheSpeedup(cfg, concurrency)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "constraint-cache speedup on %s (|V|=%d |E|=%d), %d queries over %d constraints, concurrency %d\n",
		rep.Dataset, rep.Vertices, rep.Edges, rep.Queries, rep.DistinctConstraints, rep.Concurrency)
	fmt.Fprintf(w, "cold (cache disabled)  %8.0f qps\n", rep.ColdQPS)
	fmt.Fprintf(w, "warm (cache primed)    %8.0f qps  (%.2fx)\n", rep.WarmQPS, rep.Speedup)
	fmt.Fprintf(w, "cache: %d hits / %d misses / %d entries\n",
		rep.CacheHits, rep.CacheMisses, rep.CacheEntries)
	fmt.Fprintf(w, "answers identical with and without cache: %v\n", rep.Identical)
	if !rep.Identical {
		return fmt.Errorf("bench: cached and uncached answers diverged")
	}
	return nil
}

// RunCacheSpeedupJSON writes the report as indented JSON — the format
// committed to BENCH_cache.json so later PRs can track the trajectory.
func RunCacheSpeedupJSON(w io.Writer, cfg Config, concurrency int) error {
	rep, err := MeasureCacheSpeedup(cfg, concurrency)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		return err
	}
	// The artifact records the divergence; the nonzero exit makes the CI
	// smoke an actual guard rather than a green no-op.
	if !rep.Identical {
		return fmt.Errorf("bench: cached and uncached answers diverged")
	}
	return nil
}
