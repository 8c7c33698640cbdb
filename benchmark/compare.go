package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// benchSpec is BENCHMARK.json: the declared workloads and metrics, and
// for each end-to-end metric its direction and regression bound.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &spec, nil
}

// loadRuns reads an -out file and returns, per workload and end-to-end
// metric, the values of its untraced runs in file order.
func loadRuns(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	runs := map[string]map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rep report
		if err := json.Unmarshal(sc.Bytes(), &rep); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if rep.Traced {
			continue
		}
		if runs[rep.Workload] == nil {
			runs[rep.Workload] = map[string][]float64{}
		}
		for name, m := range rep.Metrics {
			runs[rep.Workload][name] = append(runs[rep.Workload][name], m.Value)
		}
	}
	return runs, sc.Err()
}

// quartileSpread is the distance between the first and third quartile
// as a share of the median, with the quartiles Python's
// statistics.quantiles(values, n=4) gives. Fewer than two values have
// no spread.
func quartileSpread(vals []float64) float64 {
	n := len(vals)
	if n < 2 {
		return 0
	}
	x := append([]float64(nil), vals...)
	sort.Float64s(x)
	quartile := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (x[j-1]*(4-delta) + x[j]*delta) / 4
	}
	return (quartile(3) - quartile(1)) / median(x)
}

// compareFiles prints one row per workload × end-to-end metric for two
// sets of runs, a the base and b the candidate: both medians, b/a, the
// larger quartile spread of the two sets, and a verdict — "unresolved"
// when that spread exceeds the metric's bound, "worse" when b's median
// is worse than a's by more than the bound, else "ok". It reports
// whether any row was worse.
func compareFiles(w io.Writer, specPath, pathA, pathB string) (bool, error) {
	spec, err := loadSpec(specPath)
	if err != nil {
		return false, err
	}
	a, err := loadRuns(pathA)
	if err != nil {
		return false, err
	}
	b, err := loadRuns(pathB)
	if err != nil {
		return false, err
	}
	anyWorse := false
	fmt.Fprintf(w, "%-17s %-13s %12s %12s %8s %8s %6s  %s\n", "workload", "metric", "a (base)", "b", "b/a", "spread", "bound", "verdict")
	for _, wl := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			va, vb := a[wl.Name][m.Name], b[wl.Name][m.Name]
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(w, "%-17s %-13s %12s %12s %8s %8s %6.2f  missing (a has %d runs, b %d)\n",
					wl.Name, m.Name, "-", "-", "-", "-", m.Bound, len(va), len(vb))
				anyWorse = true
				continue
			}
			ma, mb := median(va), median(vb)
			worsening := (mb - ma) / ma
			if m.Better == "higher" {
				worsening = (ma - mb) / ma
			}
			spread := max(quartileSpread(va), quartileSpread(vb))
			verdict := "ok"
			switch {
			case spread > m.Bound:
				verdict = "unresolved"
			case worsening > m.Bound:
				verdict = "worse"
				anyWorse = true
			}
			fmt.Fprintf(w, "%-17s %-13s %12.4f %12.4f %8.3f %7.1f%% %6.2f  %s (n=%d,%d %s)\n",
				wl.Name, m.Name, ma, mb, mb/ma, 100*spread, m.Bound, verdict, len(va), len(vb), m.Unit)
		}
	}
	return anyWorse, nil
}
