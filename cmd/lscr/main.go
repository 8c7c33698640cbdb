// Command lscr answers label- and substructure-constrained reachability
// queries over a knowledge graph stored as an N-Triples-style file.
//
// Usage:
//
//	lscr -kg graph.nt -from SuspectC -to SuspectP \
//	     -labels transfer2019-04,married-to \
//	     -constraint "SELECT ?x WHERE { ?x <married-to> <Amy>. }" \
//	     -witness
//
// The graph and its local index can be persisted across runs with
// -data: the first run creates a store there from -kg, later runs open
// it without parsing or building anything (-kg is then optional). Exit
// status 0 means reachable, 1 means not reachable, 2 means error.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"lscr"
	"lscr/api"
	"lscr/internal/buildinfo"
)

func main() {
	var opts options
	flag.StringVar(&opts.kgPath, "kg", "", "path to the KG as N-Triples (required unless -data holds a store)")
	flag.StringVar(&opts.from, "from", "", "source vertex name (required)")
	flag.StringVar(&opts.to, "to", "", "target vertex name (required)")
	flag.StringVar(&opts.labels, "labels", "", "comma-separated label constraint (empty = all labels)")
	flag.StringVar(&opts.constraint, "constraint", "", "SPARQL substructure constraint (required)")
	flag.StringVar(&opts.algoName, "algo", "ins", "algorithm: ins, uis, uisstar or conjunctive")
	flag.StringVar(&opts.dataDir, "data", "", "data directory: open the store there, or create one from -kg on first run")
	flag.BoolVar(&opts.noIndex, "no-index", false, "skip local-index construction (forbids -algo ins)")
	flag.BoolVar(&opts.witness, "witness", false, "print the evidence path on a true answer")
	flag.StringVar(&opts.searchTree, "search-tree", "", "write the search tree as Graphviz DOT to this file")
	flag.BoolVar(&opts.verbose, "v", false, "print statistics")
	showVersion := flag.Bool("version", false, "print version and exit")
	flag.Parse()
	if *showVersion {
		fmt.Println("lscr", buildinfo.Version())
		return
	}
	// SIGINT/SIGTERM cancel the query mid-search instead of killing the
	// process with the index half-built or the answer half-printed.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	code, err := run(ctx, os.Stdout, opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lscr:", err)
		os.Exit(2)
	}
	os.Exit(code)
}

type options struct {
	kgPath, from, to, labels, constraint, algoName, dataDir string
	searchTree                                              string
	noIndex, witness, verbose                               bool
}

func run(ctx context.Context, w io.Writer, o options) (int, error) {
	if (o.kgPath == "" && o.dataDir == "") || o.from == "" || o.to == "" || o.constraint == "" {
		return 2, errors.New("-kg (or -data), -from, -to and -constraint are required")
	}
	algo, err := api.ParseAlgorithm(o.algoName)
	if err != nil {
		return 2, err
	}
	eng, err := buildEngine(o)
	if err != nil {
		return 2, err
	}
	defer eng.Close()
	req := lscr.Request{
		Source: o.from, Target: o.to,
		Constraint:  o.constraint,
		Algorithm:   algo,
		WantWitness: o.witness,
		WantTrace:   o.searchTree != "",
	}
	if o.labels != "" {
		req.Labels = strings.Split(o.labels, ",")
	}
	resp, err := eng.Query(ctx, req)
	if err != nil {
		return 2, err
	}
	if o.searchTree != "" {
		if err := os.WriteFile(o.searchTree, []byte(resp.TraceDOT), 0o644); err != nil {
			return 2, err
		}
	}
	if o.verbose {
		fmt.Fprintf(os.Stderr, "algorithm=%v elapsed=%v passed=%d treeNodes=%d |V(S,G)|=%d\n",
			algo, resp.Elapsed, resp.Stats.PassedVertices, resp.Stats.SearchTreeNodes,
			resp.SatisfyingVertices)
	}
	if !resp.Reachable {
		fmt.Fprintln(w, "not reachable")
		return 1, nil
	}
	fmt.Fprintln(w, "reachable")
	if o.witness && resp.Witness != nil {
		fmt.Fprintf(w, "witness: %s\n", resp.Witness)
		fmt.Fprintf(w, "satisfying vertex: %s\n", resp.Witness.SatisfiedBy[0])
	}
	return 0, nil
}

// buildEngine opens the store in -data, or creates it there from -kg
// when the directory holds none; without -data it builds an in-memory
// engine from -kg.
func buildEngine(o options) (*lscr.Engine, error) {
	opts := lscr.Options{SkipIndex: o.noIndex}
	if o.dataDir != "" {
		eng, err := lscr.Open(o.dataDir, opts)
		if !errors.Is(err, lscr.ErrNoStore) {
			return eng, err
		}
		if o.kgPath == "" {
			return nil, fmt.Errorf("%s holds no store and -kg was not given", o.dataDir)
		}
	}
	f, err := os.Open(o.kgPath)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	kg, err := lscr.Load(f)
	if err != nil {
		return nil, err
	}
	if o.dataDir != "" {
		return lscr.Create(o.dataDir, kg, opts)
	}
	return lscr.NewEngine(kg, opts), nil
}
