package bench

import (
	"bytes"
	"strings"
	"testing"
)

// The harness smoke tests use a tiny query budget; the real experiment
// entry points are cmd/lscrbench and the module-root benchmarks.
var tiny = Config{Scale: 1, QueriesPerGroup: 4, Seed: 1}

func TestDatasets(t *testing.T) {
	ds := Datasets(2)
	if len(ds) != 5 || ds[0].Universities != 2 || ds[4].Universities != 10 {
		t.Fatalf("Datasets = %+v", ds)
	}
}

func TestCompileConstraintErrors(t *testing.T) {
	g := buildDataset(DatasetSpec{Name: "t", Universities: 1}, 1)
	if _, _, err := compileConstraint(g, "S9"); err == nil {
		t.Error("unknown constraint accepted")
	}
	if _, vs, err := compileConstraint(g, "S5"); err != nil || len(vs) != 1 {
		t.Errorf("S5: err=%v |vs|=%d", err, len(vs))
	}
}

func TestRunGroupValidatesGroundTruth(t *testing.T) {
	g := buildDataset(DatasetSpec{Name: "t", Universities: 1}, 1)
	_, vs, err := compileConstraint(g, "S1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runGroup(g, nil, vs, nil, "UIS"); err != nil {
		t.Errorf("empty group: %v", err)
	}
	if _, err := runGroup(g, nil, vs, nil, "bogus"); err != nil {
		t.Errorf("empty group with bogus algo should not run: %v", err)
	}
}

func TestRunFigureSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("harness smoke test")
	}
	var buf bytes.Buffer
	cfg := tiny
	if err := RunFigure(&buf, "S1", cfg); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Figure 10", "true queries", "false queries", "D1", "D5", "INS"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if err := RunFigure(&buf, "S9", cfg); err == nil {
		t.Error("unknown figure accepted")
	}
}

func TestRunTable2Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("harness smoke test")
	}
	var buf bytes.Buffer
	if err := RunTable2(&buf, tiny); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Table 2", "D0", "D5", "Landmark[19]", "SCC[25]", "Table 3", "S5"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestRunFig5Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("harness smoke test")
	}
	var buf bytes.Buffer
	if err := RunFig5Density(&buf, tiny); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Figure 5(a)") {
		t.Error("missing header")
	}
	buf.Reset()
	if err := RunFig5Scale(&buf, tiny); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Figure 5(b)") {
		t.Error("missing header")
	}
}

func TestRunFig15Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("harness smoke test")
	}
	var buf bytes.Buffer
	if err := RunFig15(&buf, tiny); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Figure 15", "magnitude", "10^1", "10^3"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunAblationsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("harness smoke test")
	}
	var buf bytes.Buffer
	if err := RunAblationLandmarks(&buf, tiny); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := RunAblationQueue(&buf, tiny); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "UIS*") {
		t.Error("queue ablation output incomplete")
	}
	buf.Reset()
	if err := RunAblationVSOrder(&buf, tiny); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "nearest to source") {
		t.Error("vsorder ablation output incomplete")
	}
}

func TestDigits(t *testing.T) {
	for m, want := range map[int]int{10: 1, 100: 2, 1000: 3, 99: 1, 9: 0} {
		if got := digits(m); got != want {
			t.Errorf("digits(%d) = %d, want %d", m, got, want)
		}
	}
}
