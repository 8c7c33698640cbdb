package main

import (
	"bytes"
	"strings"
	"testing"

	"lscr/internal/bench"
)

// TestRunUnknownExperiment: an unknown id is refused, and the error
// names every id that would have run.
func TestRunUnknownExperiment(t *testing.T) {
	var buf bytes.Buffer
	err := run(&buf, "fig99", bench.Config{})
	if err == nil {
		t.Fatal("unknown experiment accepted")
	}
	for id := range runners {
		if !strings.Contains(err.Error(), id) {
			t.Errorf("error %q does not list runnable id %q", err, id)
		}
	}
	if !strings.Contains(err.Error(), "all") {
		t.Errorf("error %q does not list %q", err, "all")
	}
	// -exp all must reach every runner.
	inOrder := map[string]bool{}
	for _, id := range order {
		inOrder[id] = true
	}
	for id := range runners {
		if !inOrder[id] {
			t.Errorf("-exp all skips %q", id)
		}
	}
}

func TestRunSingleExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real (small) experiment")
	}
	var buf bytes.Buffer
	cfg := bench.Config{Scale: 1, QueriesPerGroup: 3, Seed: 1}
	if err := run(&buf, "ablation-queue", cfg); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "UIS*") {
		t.Errorf("unexpected output:\n%s", buf.String())
	}
}
