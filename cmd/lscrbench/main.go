// Command lscrbench regenerates the paper's tables and figures (§6) at
// laptop scale, and measures this implementation's parallel scaling.
//
// Usage:
//
//	lscrbench -exp fig10            # Figure 10 (constraint S1)
//	lscrbench -exp table2 -scale 2  # Table 2 at double scale
//	lscrbench -exp all -queries 50  # every paper experiment
//	lscrbench -exp parallel         # index-build + query-fanout speedup
//	lscrbench -exp parallel-json    # same, as BENCH_parallel.json
//	lscrbench -exp throughput -concurrency 8
//	                                # end-to-end QPS through Engine.QueryBatch
//	lscrbench -exp cachespeedup     # warm-vs-cold constraint-cache QPS
//	lscrbench -exp cachespeedup-json# same, as BENCH_cache.json
//	lscrbench -exp serverclient     # typed client → live lscrd /v1 QPS
//	lscrbench -exp csr              # CSR labeled-scan vs filter traversal QPS
//	lscrbench -exp csr-json         # same, as BENCH_csr.json
//	lscrbench -exp mutate           # mixed read/write workload over Engine.Apply
//	lscrbench -exp mutate-json      # same, as BENCH_mutate.json
//	lscrbench -exp insdyn           # maintained vs stale-index INS over a growing overlay
//	lscrbench -exp insdyn-json      # same, as BENCH_insdyn.json
//	lscrbench -exp restart          # cold boot: parse+rebuild vs segment mmap vs crash recovery
//	lscrbench -exp restart-json     # same, as BENCH_restart.json
//	lscrbench -exp replica          # gateway read scaling over 1 vs 2 WAL-fed followers
//	lscrbench -exp replica-json     # same, as BENCH_replica.json
//	lscrbench -exp chaos            # fault schedules over writer+followers+gateway
//	lscrbench -exp chaos-json       # same, as BENCH_chaos.json
//	lscrbench -exp scale -edges 1200000
//	                                # multi-million-edge tier: gen + index +
//	                                # contended throughput + cache + mutate
//	lscrbench -exp scale-json       # same, as BENCH_scale.json
//
// Experiments: table2, fig5a, fig5b, fig10, fig11, fig12, fig13, fig14,
// fig15, ablation-rho, ablation-landmarks, ablation-queue,
// ablation-vsorder, parallel, parallel-json, throughput, cachespeedup,
// cachespeedup-json, serverclient, csr, csr-json, mutate, mutate-json,
// insdyn, insdyn-json, restart, restart-json, replica, replica-json,
// chaos, chaos-json, all. "all" runs the paper experiments only — the
// machine-dependent scaling sweeps (parallel*, throughput,
// cachespeedup*, serverclient, csr*, mutate*, insdyn*, restart*,
// replica*) and the chaos tier (chaos*) are invoked explicitly.
// The mutate experiments exit nonzero unless the mutated engine
// answered identically to a rebuild on the final edge set; the insdyn
// experiments exit nonzero unless the maintained and
// maintenance-disabled engines answered identically at every overlay
// size; the restart experiments exit nonzero unless the segment-booted
// engine was bit-identical to the rebuilt one and the crash-recovered
// engine matched a rebuild on the final edge set; the replica
// experiments exit nonzero unless both followers answered bit-identically
// to the writer. The chaos experiments (-schedules fault schedules over
// a live writer+2-follower+gateway cluster) exit nonzero on any
// divergence from the fault-free oracle, a missing overload shed, or a
// goroutine leak.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"lscr/internal/bench"
	"lscr/internal/buildinfo"
)

func main() {
	var (
		exp         = flag.String("exp", "all", "experiment id (table2, fig5a, fig5b, fig10..fig15, ablation-rho, ablation-landmarks, ablation-queue, parallel, parallel-json, throughput, cachespeedup, cachespeedup-json, serverclient, csr, csr-json, mutate, mutate-json, restart, restart-json, all)")
		scale       = flag.Int("scale", 1, "dataset scale multiplier")
		queries     = flag.Int("queries", 15, "queries per true/false group (paper: 1000)")
		seed        = flag.Int64("seed", 1, "workload and generator seed")
		concurrency = flag.Int("concurrency", 0, "throughput mode: QueryBatch fan-out (0 = all cores)")
		schedules   = flag.Int("schedules", 50, "chaos mode: deterministic fault schedules to run")
		edges       = flag.Int("edges", bench.DefaultScaleEdges, "scale mode: generated KG edge target")
		showVersion = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *showVersion {
		fmt.Println("lscrbench", buildinfo.Version())
		return
	}
	cfg := bench.Config{Scale: *scale, QueriesPerGroup: *queries, Seed: *seed}
	if err := run(os.Stdout, *exp, cfg, *concurrency, *schedules, *edges); err != nil {
		fmt.Fprintln(os.Stderr, "lscrbench:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, exp string, cfg bench.Config, concurrency, schedules, edges int) error {
	runners := map[string]func(io.Writer, bench.Config) error{
		"table2":             bench.RunTable2,
		"fig5a":              bench.RunFig5Density,
		"fig5b":              bench.RunFig5Scale,
		"fig10":              figure("S1"),
		"fig11":              figure("S2"),
		"fig12":              figure("S3"),
		"fig13":              figure("S4"),
		"fig14":              figure("S5"),
		"fig15":              bench.RunFig15,
		"ablation-rho":       bench.RunAblationRho,
		"ablation-vsorder":   bench.RunAblationVSOrder,
		"ablation-landmarks": bench.RunAblationLandmarks,
		"ablation-queue":     bench.RunAblationQueue,
		"parallel":           bench.RunParallel,
		"parallel-json":      bench.RunParallelJSON,
		"csr":                bench.RunCSR,
		"csr-json":           bench.RunCSRJSON,
		"throughput": func(w io.Writer, cfg bench.Config) error {
			return bench.RunThroughput(w, cfg, concurrency)
		},
		"cachespeedup": func(w io.Writer, cfg bench.Config) error {
			return bench.RunCacheSpeedup(w, cfg, concurrency)
		},
		"cachespeedup-json": func(w io.Writer, cfg bench.Config) error {
			return bench.RunCacheSpeedupJSON(w, cfg, concurrency)
		},
		"serverclient": func(w io.Writer, cfg bench.Config) error {
			return bench.RunServerClient(w, cfg, concurrency)
		},
		"mutate": func(w io.Writer, cfg bench.Config) error {
			return bench.RunMutate(w, cfg, concurrency)
		},
		"mutate-json": func(w io.Writer, cfg bench.Config) error {
			return bench.RunMutateJSON(w, cfg, concurrency)
		},
		"insdyn": func(w io.Writer, cfg bench.Config) error {
			return bench.RunInsDyn(w, cfg, concurrency)
		},
		"insdyn-json": func(w io.Writer, cfg bench.Config) error {
			return bench.RunInsDynJSON(w, cfg, concurrency)
		},
		"restart": func(w io.Writer, cfg bench.Config) error {
			return bench.RunRestart(w, cfg, concurrency)
		},
		"restart-json": func(w io.Writer, cfg bench.Config) error {
			return bench.RunRestartJSON(w, cfg, concurrency)
		},
		"replica": func(w io.Writer, cfg bench.Config) error {
			return bench.RunReplica(w, cfg, concurrency)
		},
		"replica-json": func(w io.Writer, cfg bench.Config) error {
			return bench.RunReplicaJSON(w, cfg, concurrency)
		},
		"chaos": func(w io.Writer, cfg bench.Config) error {
			return bench.RunChaos(w, cfg, schedules)
		},
		"chaos-json": func(w io.Writer, cfg bench.Config) error {
			return bench.RunChaosJSON(w, cfg, schedules)
		},
		"scale": func(w io.Writer, cfg bench.Config) error {
			return bench.RunScale(w, cfg, edges)
		},
		"scale-json": func(w io.Writer, cfg bench.Config) error {
			return bench.RunScaleJSON(w, cfg, edges)
		},
	}
	if exp == "all" {
		order := []string{
			"table2", "fig5a", "fig5b",
			"fig10", "fig11", "fig12", "fig13", "fig14", "fig15",
			"ablation-rho", "ablation-landmarks", "ablation-queue",
			"ablation-vsorder",
		}
		for _, id := range order {
			fmt.Fprintf(w, "==== %s ====\n", id)
			if err := runners[id](w, cfg); err != nil {
				return fmt.Errorf("%s: %w", id, err)
			}
			fmt.Fprintln(w)
		}
		return nil
	}
	r, ok := runners[exp]
	if !ok {
		return fmt.Errorf("unknown experiment %q", exp)
	}
	return r(w, cfg)
}

func figure(s string) func(io.Writer, bench.Config) error {
	return func(w io.Writer, cfg bench.Config) error {
		return bench.RunFigure(w, s, cfg)
	}
}
