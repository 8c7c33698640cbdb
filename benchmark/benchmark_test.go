package main

import (
	"bytes"
	"context"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"lscr/internal/graph"
	"lscr/internal/labelset"
	core "lscr/internal/lscr"
	"lscr/internal/sparql"
	"lscr/internal/testkg"
)

func declared(t *testing.T) *benchSpec {
	t.Helper()
	spec, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// sameMetrics fails unless rep reports exactly the declared metrics,
// each with its declared unit.
func sameMetrics(t *testing.T, rep *report, want []metricSpec) {
	t.Helper()
	var got, declared []string
	for name := range rep.Metrics {
		got = append(got, name)
	}
	for _, m := range want {
		declared = append(declared, m.Name)
		if g, ok := rep.Metrics[m.Name]; ok && g.Unit != m.Unit {
			t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", rep.Workload, m.Name, g.Unit, m.Unit)
		}
	}
	sort.Strings(got)
	sort.Strings(declared)
	if strings.Join(got, " ") != strings.Join(declared, " ") {
		t.Errorf("%s: metrics emitted\n  %v\ndeclared in BENCHMARK.json\n  %v", rep.Workload, got, declared)
	}
}

func TestDeclaredWorkloads(t *testing.T) {
	spec := declared(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the benchmark %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
}

func TestEndToEndRuns(t *testing.T) {
	spec := declared(t)
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			rep, err := runEndToEnd(context.Background(), w, 1, 0.4, true, 2)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Correct || rep.Failed != 0 {
				t.Errorf("failed %d of %d: %v", rep.Failed, rep.Attempted, rep.Failures)
			}
			sameMetrics(t, rep, spec.EndToEnd)
			for name, m := range rep.Metrics {
				if m.Value <= 0 {
					t.Errorf("%s = %v, want a positive number", name, m.Value)
				}
			}
		})
	}
}

func TestTracedRuns(t *testing.T) {
	spec := declared(t)
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			spans := filepath.Join(t.TempDir(), "spans.json")
			rep, err := runTraced(context.Background(), w, 1, true, spans)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Correct || rep.Failed != 0 {
				t.Errorf("failed %d of %d: %v", rep.Failed, rep.Attempted, rep.Failures)
			}
			sameMetrics(t, rep, spec.PerLayer)
			for _, name := range []string{"engine.self_ms", "server.self_ms", "client.self_ms", "gateway.self_ms"} {
				if rep.Metrics[name].Value < 0 {
					t.Errorf("%s = %v: a layer's self time cannot be negative", name, rep.Metrics[name].Value)
				}
			}
			// Apply's self time is a few percent of an apply and the difference
			// of two timings that each hold an fsync, so at these sizes (and
			// under the race detector) it can land just below zero.
			if self, apply := rep.Metrics["engine.apply_self_ms"].Value, rep.Metrics["engine.apply_ms"].Value; self < -0.1*apply {
				t.Errorf("engine.apply_self_ms = %v of a %v ms apply: the replayed layers cost more than the call they replay", self, apply)
			}
			if fi, err := os.Stat(spans); err != nil || fi.Size() == 0 {
				t.Errorf("spans file: %v", err)
			}
		})
	}
}

// A wrong expected answer stands in for a wrong answer from the system:
// the gate must count it.
func TestGateCatchesWrongAnswer(t *testing.T) {
	inst, err := setUp(&workloads[0], 1, true, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer inst.close()
	inst.pool[3].expected = !inst.pool[3].expected
	gate := &tally{}
	readLoop(context.Background(), inst, 1, len(inst.pool), nil, gate)
	if gate.failed.Load() != 1 || gate.attempted.Load() != int64(len(inst.pool)) {
		t.Fatalf("gate counted %d failures in %d reads, want 1 in %d", gate.failed.Load(), gate.attempted.Load(), len(inst.pool))
	}
	rep := &report{}
	rep.finish(gate)
	if rep.Correct {
		t.Fatal("report is correct despite a wrong answer")
	}
}

func TestOracleAgreesWithUIS(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := testkg.Random(rng, 60, 240, 5)
	o := newOracle(g)
	text := "SELECT ?x WHERE { ?x <l0> ?y. ?y <l1> ?z. }"
	set, err := o.satisfying(text)
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := sparql.Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	cons, _, err := parsed.Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	trues := 0
	for i := 0; i < 200; i++ {
		s, u := graph.VertexID(rng.Intn(60)), graph.VertexID(rng.Intn(60))
		var L labelset.Set
		for l := 0; l < 5; l++ {
			if rng.Intn(2) == 0 {
				L = L.Add(labelset.Label(l))
			}
		}
		want, _, err := core.UIS(g, core.Query{Source: s, Target: u, Labels: L, Constraint: cons})
		if err != nil {
			t.Fatal(err)
		}
		if got := o.holds(s, u, L, [][]bool{set}); got != want {
			t.Fatalf("query %d (%d → %d, L=%v): oracle %v, UIS %v", i, s, u, L, got, want)
		}
		if want {
			trues++
		}
	}
	if trues == 0 || trues == 200 {
		t.Fatalf("%d of 200 answers true: the comparison is one-sided", trues)
	}
}

func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, p50s ...float64) string {
		path := filepath.Join(dir, name)
		for _, v := range p50s {
			rep := &report{Workload: "embed-search", Metrics: map[string]metric{"read_p50_ms": {Value: v, Unit: "ms"}}}
			if err := appendReport(path, rep); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	spec := filepath.Join(dir, "spec.json")
	if err := os.WriteFile(spec, []byte(`{"workloads":[{"name":"embed-search"}],
		"end_to_end":[{"name":"read_p50_ms","unit":"ms","better":"lower","bound":0.1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	base := write("base", 1.00, 1.01, 0.99, 1.00)
	for _, tc := range []struct {
		name    string
		values  []float64
		verdict string
		worse   bool
	}{
		{"same", []float64{1.02, 1.01, 1.00, 1.01}, "ok", false},
		{"slower", []float64{1.30, 1.31, 1.29, 1.30}, "worse", true},
		{"noisy", []float64{0.7, 1.0, 1.3, 1.6}, "unresolved", false},
	} {
		var out bytes.Buffer
		worse, err := compareFiles(&out, spec, base, write(tc.name, tc.values...))
		if err != nil {
			t.Fatal(err)
		}
		if worse != tc.worse || !strings.Contains(out.String(), " "+tc.verdict+" ") {
			t.Errorf("%s: worse=%v, output\n%s\nwant verdict %q, worse=%v", tc.name, worse, out.String(), tc.verdict, tc.worse)
		}
	}
}
