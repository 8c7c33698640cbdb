package lscr_test

// One testing.B benchmark per table and figure of the paper's evaluation
// section (§6), each delegating to the internal/bench harness. The first
// iteration of every benchmark prints the regenerated table to stdout;
// further iterations measure end-to-end experiment cost against
// io.Discard.
//
// Scales are laptop defaults; run `go run ./cmd/lscrbench -exp <id>
// -scale N -queries M` for larger reproductions.

import (
	"io"
	"os"
	"sync"
	"testing"

	"lscr/internal/bench"
)

var benchCfg = bench.Config{Scale: 1, QueriesPerGroup: 8, Seed: 1}

var printOnce sync.Map // experiment id -> *sync.Once

func runExperiment(b *testing.B, id string, f func(io.Writer, bench.Config) error) {
	b.Helper()
	onceI, _ := printOnce.LoadOrStore(id, new(sync.Once))
	once := onceI.(*sync.Once)
	for i := 0; i < b.N; i++ {
		var w io.Writer = io.Discard
		printed := false
		once.Do(func() { w = os.Stdout; printed = true })
		if printed {
			os.Stdout.WriteString("\n==== " + id + " ====\n")
		}
		if err := f(w, benchCfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable2(b *testing.B) {
	runExperiment(b, "table2", bench.RunTable2)
}

func BenchmarkFig5Density(b *testing.B) {
	runExperiment(b, "fig5a", bench.RunFig5Density)
}

func BenchmarkFig5Scale(b *testing.B) {
	runExperiment(b, "fig5b", bench.RunFig5Scale)
}

func BenchmarkFig10(b *testing.B) { benchFigure(b, "fig10", "S1") }
func BenchmarkFig11(b *testing.B) { benchFigure(b, "fig11", "S2") }
func BenchmarkFig12(b *testing.B) { benchFigure(b, "fig12", "S3") }
func BenchmarkFig13(b *testing.B) { benchFigure(b, "fig13", "S4") }
func BenchmarkFig14(b *testing.B) { benchFigure(b, "fig14", "S5") }

func benchFigure(b *testing.B, id, constraint string) {
	runExperiment(b, id, func(w io.Writer, cfg bench.Config) error {
		return bench.RunFigure(w, constraint, cfg)
	})
}

func BenchmarkFig15(b *testing.B) {
	runExperiment(b, "fig15", bench.RunFig15)
}

func BenchmarkAblationLandmarks(b *testing.B) {
	runExperiment(b, "ablation-landmarks", bench.RunAblationLandmarks)
}

func BenchmarkAblationQueue(b *testing.B) {
	runExperiment(b, "ablation-queue", bench.RunAblationQueue)
}

func BenchmarkAblationVSOrder(b *testing.B) {
	runExperiment(b, "ablation-vsorder", bench.RunAblationVSOrder)
}
