// Command benchmark is the repository's one benchmark: four LSCR
// workloads, end-to-end metrics measured with tracing off, and a traced
// run that attributes time to each layer. See README.md.
//
//	benchmark -workload <name|all> -seed <n> -seconds <s> -trace <0|1> [-out runs.jsonl] [-spans spans.json]
//	benchmark -compare a.jsonl b.jsonl [-spec BENCHMARK.json]
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"

	"lscr/internal/buildinfo"
)

// environment is the envelope: what a reader needs before believing a
// number.
type environment struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Clients    int    `json:"clients"`
}

// maxClients caps the closed loop's callers; below it there is one per
// CPU, so the benchmark never runs more client goroutines or
// connections than the machine has processors.
const maxClients = 4

func currentEnvironment() (environment, error) {
	env := environment{
		Commit:     buildinfo.Version(),
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	env.Clients = min(env.NumCPU, maxClients)
	if env.GOMAXPROCS > env.NumCPU {
		return env, fmt.Errorf("GOMAXPROCS=%d exceeds NumCPU=%d: oversubscribed timings are not comparable", env.GOMAXPROCS, env.NumCPU)
	}
	return env, nil
}

func main() {
	var (
		name    = flag.String("workload", "all", "workload to run, or all")
		seed    = flag.Int64("seed", 1, "seed of every generated input")
		seconds = flag.Float64("seconds", 15, "length of the timed window")
		trace   = flag.Int("trace", 0, "1 runs the traced, per-layer run instead of the end-to-end one")
		short   = flag.Bool("short", false, "self-test sizes: small graphs and pools")
		out     = flag.String("out", "", "append each run's full report to this file, one JSON object per line")
		spans   = flag.String("spans", "", "with -trace 1, write the recorded spans to this file")
		compare = flag.Bool("compare", false, "compare two -out files given as arguments")
		spec    = flag.String("spec", "BENCHMARK.json", "metric directions and bounds for -compare")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(errors.New("-compare takes two -out files"))
		}
		worse, err := compareFiles(os.Stdout, *spec, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if worse {
			os.Exit(1)
		}
		return
	}

	env, err := currentEnvironment()
	if err != nil {
		fatal(err)
	}
	var selected []*workload
	if *name == "all" {
		for i := range workloads {
			selected = append(selected, &workloads[i])
		}
	} else if w, ok := workloadByName(*name); ok {
		selected = []*workload{w}
	} else {
		fatal(fmt.Errorf("unknown workload %q", *name))
	}

	ctx := context.Background()
	allCorrect := true
	for _, w := range selected {
		var rep *report
		if *trace != 0 {
			rep, err = runTraced(ctx, w, *seed, *short, *spans)
		} else {
			rep, err = runEndToEnd(ctx, w, *seed, *seconds, *short, env.Clients)
		}
		if err != nil {
			fatal(fmt.Errorf("%s: %w", w.name, err))
		}
		rep.Env = env
		if rep.Traced {
			fmt.Fprint(os.Stderr, layerTable(rep))
		}
		if *out != "" {
			if err := appendReport(*out, rep); err != nil {
				fatal(err)
			}
		}
		for _, f := range rep.Failures {
			fmt.Fprintf(os.Stderr, "%s: FAILED %s\n", w.name, f)
		}
		allCorrect = allCorrect && rep.Correct
		if err := printResult(rep); err != nil {
			fatal(err)
		}
	}
	if !allCorrect {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// printResult writes the one-line result the driver reads: the gate's
// verdict and each metric's value and unit, without the sample counts.
func printResult(rep *report) error {
	line := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rep.Correct, rep.Attempted, rep.Failed, map[string]metric{}}
	for name, m := range rep.Metrics {
		line.Metrics[name] = metric{Value: m.Value, Unit: m.Unit}
	}
	return json.NewEncoder(os.Stdout).Encode(line)
}

func appendReport(path string, rep *report) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(rep); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
