package bench

import (
	"fmt"
	"io"
	"time"

	"lscr/internal/lscr"
	"lscr/internal/workload"
)

// RunAblationLandmarks sweeps the landmark count k around the paper's
// default k̂ = log2(|V|)·√|V|, reporting index cost and INS query time —
// the size/speed trade-off §5.1.2's choice of k embodies.
func RunAblationLandmarks(w io.Writer, cfg Config) error {
	cfg = cfg.withDefaults()
	spec := DatasetSpec{Name: "D2", Universities: 2 * cfg.Scale}
	g := buildDataset(spec, cfg.Seed)
	cons, vs, err := compileConstraint(g, "S1")
	if err != nil {
		return err
	}
	trueQ, _, err := workload.Generate(g, cons, vs, workload.Config{
		Count: cfg.QueriesPerGroup, Seed: cfg.Seed + 77,
	})
	if err != nil {
		return err
	}
	kHat := lscr.DefaultK(g.NumVertices())
	fmt.Fprintf(w, "Ablation — landmark count (dataset %s, |V|=%d, k̂=%d)\n\n", spec.Name, g.NumVertices(), kHat)
	tw := newTab(w)
	fmt.Fprintf(tw, "k\tindex time(ms)\tindex size(KB)\tINS true avg(ms)\ttrue passed\n")
	for _, k := range []int{kHat / 4, kHat / 2, kHat, kHat * 2} {
		if k < 1 {
			k = 1
		}
		start := time.Now()
		idx := lscr.NewLocalIndex(g, lscr.IndexParams{K: k, Seed: cfg.Seed})
		it := time.Since(start)
		tr, err := runGroup(g, idx, vs, trueQ, "INS")
		if err != nil {
			return err
		}
		fmt.Fprintf(tw, "%d\t%.0f\t%d\t%.3f\t%.0f\n", k,
			float64(it)/float64(time.Millisecond), idx.SizeBytes()/1024,
			float64(tr.AvgTime)/float64(time.Millisecond), tr.AvgPassed)
	}
	return tw.Flush()
}

// RunAblationQueue runs the paper's full algorithm progression on one
// workload: the §3 naive two-procedure baseline (Theorem 3.1's
// O(|V|·(|V|+|E|))), UIS with recall, UIS* with the SPARQL-provided
// V(S,G), and INS with the local index and priority queue — isolating
// what each design step buys (the delta §5 motivates with Figure 8).
func RunAblationQueue(w io.Writer, cfg Config) error {
	cfg = cfg.withDefaults()
	spec := DatasetSpec{Name: "D2", Universities: 2 * cfg.Scale}
	g := buildDataset(spec, cfg.Seed)
	cons, vs, err := compileConstraint(g, "S1")
	if err != nil {
		return err
	}
	trueQ, falseQ, err := workload.Generate(g, cons, vs, workload.Config{
		Count: cfg.QueriesPerGroup, Seed: cfg.Seed + 55,
	})
	if err != nil {
		return err
	}
	idx := buildIndex(g, spec, cfg.Seed)
	fmt.Fprintf(w, "Ablation — search policy (dataset %s, |V|=%d, constraint S1)\n\n", spec.Name, g.NumVertices())
	tw := newTab(w)
	fmt.Fprintf(tw, "algorithm\ttrue avg(ms)\tfalse avg(ms)\ttrue passed\tfalse passed\n")
	for _, algo := range []string{"Naive", "UIS", "UIS*", "INS"} {
		tr, err := runGroup(g, idx, vs, trueQ, algo)
		if err != nil {
			return err
		}
		fa, err := runGroup(g, idx, vs, falseQ, algo)
		if err != nil {
			return err
		}
		fmt.Fprintf(tw, "%s\t%.3f\t%.3f\t%.0f\t%.0f\n", algo,
			float64(tr.AvgTime)/float64(time.Millisecond),
			float64(fa.AvgTime)/float64(time.Millisecond),
			tr.AvgPassed, fa.AvgPassed)
	}
	return tw.Flush()
}
