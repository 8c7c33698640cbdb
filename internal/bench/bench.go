// Package bench regenerates every table and figure of the paper's
// evaluation section (§6) at laptop scale, plus the ablations behind
// them. Each runner prints the same rows/series the paper reports. The
// cmd/lscrbench CLI and the module-root testing.B benchmarks both
// delegate here. The package works on the internal graph, index and
// search packages directly; end-to-end performance of the engine and
// its serving stack is measured by the benchmark module instead
// (BENCHMARK.json, benchmark/README.md).
//
// Scales: the paper evaluated KGs of 3.7M–18.9M vertices on a dedicated
// machine with 1000+1000 queries per point and an 8-hour indexing cap.
// The defaults here reproduce the shapes (orderings, crossovers, growth
// trends) at ~100×-smaller scale; every runner accepts a scale knob.
package bench

import (
	"fmt"
	"io"
	"math/rand"
	"sync"
	"text/tabwriter"
	"time"

	"lscr/internal/graph"
	"lscr/internal/lscr"
	"lscr/internal/lubm"
	"lscr/internal/pattern"
	"lscr/internal/sparql"
	"lscr/internal/workload"
)

// Config is shared by all runners.
type Config struct {
	// Scale multiplies dataset sizes. 1 is the laptop default (D1–D5 at
	// 1..5 universities ≈ 9k..45k vertices).
	Scale int
	// QueriesPerGroup is the paper's 1000, scaled down (default 15).
	QueriesPerGroup int
	Seed            int64
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.Scale <= 0 {
		c.Scale = 1
	}
	if c.QueriesPerGroup <= 0 {
		c.QueriesPerGroup = 15
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// DatasetSpec names one synthetic dataset of Table 2.
type DatasetSpec struct {
	Name         string
	Universities int
}

// Datasets returns the D1–D5 series at the given scale.
func Datasets(scale int) []DatasetSpec {
	out := make([]DatasetSpec, 5)
	for i := range out {
		out[i] = DatasetSpec{Name: fmt.Sprintf("D%d", i+1), Universities: (i + 1) * scale}
	}
	return out
}

// Datasets and indexes are cached per (universities, seed) for the
// lifetime of the process: every figure sweeps the same D1–D5 series, and
// regenerating them per figure would quintuple harness time.
var (
	dsMu    sync.Mutex
	dsCache = map[[2]int64]*graph.Graph{}
	ixCache = map[[2]int64]*lscr.LocalIndex{}
)

// buildDataset generates (or reuses) the LUBM KG for spec.
func buildDataset(spec DatasetSpec, seed int64) *graph.Graph {
	key := [2]int64{int64(spec.Universities), seed}
	dsMu.Lock()
	defer dsMu.Unlock()
	if g, ok := dsCache[key]; ok {
		return g
	}
	cfg := lubm.DefaultConfig(spec.Universities)
	cfg.Seed = seed
	g := lubm.Generate(cfg)
	dsCache[key] = g
	return g
}

// buildIndex builds (or reuses) the local index for a cached dataset.
func buildIndex(g *graph.Graph, spec DatasetSpec, seed int64) *lscr.LocalIndex {
	key := [2]int64{int64(spec.Universities), seed}
	dsMu.Lock()
	defer dsMu.Unlock()
	if idx, ok := ixCache[key]; ok {
		return idx
	}
	idx := lscr.NewLocalIndex(g, lscr.IndexParams{Seed: seed})
	ixCache[key] = idx
	return idx
}

// compileConstraint resolves one of Table 3's S1–S5 against g and
// evaluates V(S,G).
func compileConstraint(g *graph.Graph, name string) (*pattern.Constraint, []graph.VertexID, error) {
	nc, ok := lubm.Constraint(name)
	if !ok {
		return nil, nil, fmt.Errorf("bench: unknown constraint %q", name)
	}
	q, err := sparql.Parse(nc.SPARQL)
	if err != nil {
		return nil, nil, err
	}
	cons, sat, err := q.Compile(g)
	if err != nil {
		return nil, nil, err
	}
	if !sat {
		return nil, nil, fmt.Errorf("bench: %s references unknown entities", name)
	}
	m, err := pattern.NewMatcher(g, cons)
	if err != nil {
		return nil, nil, err
	}
	return cons, m.MatchAll(), nil
}

// algoResult aggregates one algorithm over one query group.
type algoResult struct {
	AvgTime   time.Duration
	AvgPassed float64
}

// runGroup executes a query group under one algorithm.
func runGroup(g *graph.Graph, idx *lscr.LocalIndex, vs []graph.VertexID, qs []workload.Query, algo string) (algoResult, error) {
	if len(qs) == 0 {
		return algoResult{}, nil
	}
	var total time.Duration
	var passed int
	for _, q := range qs {
		var (
			ans bool
			st  lscr.Stats
			err error
		)
		start := time.Now()
		switch algo {
		case "Naive":
			ans, st, err = lscr.Naive(g, q.Query)
		case "UIS":
			ans, st, err = lscr.UIS(g, q.Query)
		case "UIS*":
			ans, st, err = lscr.UISStar(g, q.Query, vs)
		case "INS":
			ans, st, err = lscr.INS(g, idx, q.Query, vs)
		default:
			return algoResult{}, fmt.Errorf("bench: unknown algorithm %q", algo)
		}
		total += time.Since(start)
		if err != nil {
			return algoResult{}, err
		}
		if ans != q.Expected {
			return algoResult{}, fmt.Errorf("bench: %s answered %v, ground truth %v (s=%d t=%d)",
				algo, ans, q.Expected, q.Source, q.Target)
		}
		passed += st.PassedVertices
	}
	return algoResult{
		AvgTime:   total / time.Duration(len(qs)),
		AvgPassed: float64(passed) / float64(len(qs)),
	}, nil
}

// newTab returns a tabwriter for aligned experiment rows.
func newTab(w io.Writer) *tabwriter.Writer {
	return tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
}

// rng builds a deterministic source for one experiment id.
func rng(seed int64, salt string) *rand.Rand {
	h := int64(1469598103934665603)
	for _, b := range []byte(salt) {
		h = (h ^ int64(b)) * 1099511628211
	}
	return rand.New(rand.NewSource(seed ^ h))
}
