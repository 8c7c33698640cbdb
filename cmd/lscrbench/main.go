// Command lscrbench regenerates the paper's tables and figures (§6) at
// laptop scale.
//
// Usage:
//
//	lscrbench -exp fig10            # Figure 10 (constraint S1)
//	lscrbench -exp table2 -scale 2  # Table 2 at double scale
//	lscrbench -exp all -queries 50  # every paper experiment
//
// Experiments: table2, fig5a, fig5b, fig10, fig11, fig12, fig13, fig14,
// fig15, ablation-landmarks, ablation-queue, ablation-vsorder, and
// all, which runs each of them in that order.
// Every experiment checks each answer against the workload's ground
// truth and exits nonzero on a mismatch. End-to-end performance of the
// engine, server and gateway is measured by the benchmark module
// (BENCHMARK.json, benchmark/README.md), not here.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"lscr/internal/bench"
	"lscr/internal/buildinfo"
)

// order is the sequence -exp all runs; it names every runner.
var order = []string{
	"table2", "fig5a", "fig5b",
	"fig10", "fig11", "fig12", "fig13", "fig14", "fig15",
	"ablation-landmarks", "ablation-queue", "ablation-vsorder",
}

var runners = map[string]func(io.Writer, bench.Config) error{
	"table2":             bench.RunTable2,
	"fig5a":              bench.RunFig5Density,
	"fig5b":              bench.RunFig5Scale,
	"fig10":              figure("S1"),
	"fig11":              figure("S2"),
	"fig12":              figure("S3"),
	"fig13":              figure("S4"),
	"fig14":              figure("S5"),
	"fig15":              bench.RunFig15,
	"ablation-vsorder":   bench.RunAblationVSOrder,
	"ablation-landmarks": bench.RunAblationLandmarks,
	"ablation-queue":     bench.RunAblationQueue,
}

// experimentIDs lists every valid -exp value: the sorted runner ids,
// then all.
func experimentIDs() string {
	ids := make([]string, 0, len(runners)+1)
	for id := range runners {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return strings.Join(append(ids, "all"), ", ")
}

func main() {
	var (
		exp         = flag.String("exp", "all", "experiment id: "+experimentIDs())
		scale       = flag.Int("scale", 1, "dataset scale multiplier")
		queries     = flag.Int("queries", 15, "queries per true/false group (paper: 1000)")
		seed        = flag.Int64("seed", 1, "workload and generator seed")
		showVersion = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *showVersion {
		fmt.Println("lscrbench", buildinfo.Version())
		return
	}
	cfg := bench.Config{Scale: *scale, QueriesPerGroup: *queries, Seed: *seed}
	if err := run(os.Stdout, *exp, cfg); err != nil {
		fmt.Fprintln(os.Stderr, "lscrbench:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, exp string, cfg bench.Config) error {
	if exp == "all" {
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
		return fmt.Errorf("unknown experiment %q (valid: %s)", exp, experimentIDs())
	}
	return r(w, cfg)
}

func figure(s string) func(io.Writer, bench.Config) error {
	return func(w io.Writer, cfg bench.Config) error {
		return bench.RunFigure(w, s, cfg)
	}
}
