package lcr

import (
	"math/rand"
	"slices"
	"sync"
	"testing"

	"lscr/internal/graph"
	"lscr/internal/labelset"
	"lscr/internal/testkg"
)

// TestReachAllocFree pins that a warmed Reach borrows its visited set and
// worklist from the walker pool instead of allocating |V|-sized state per
// call.
func TestReachAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled walkers at random under the race detector")
	}
	rng := rand.New(rand.NewSource(9))
	g := testkg.Random(rng, 3000, 9000, 6)
	L := labelset.Universe(4)
	s, tt := graph.VertexID(0), graph.VertexID(g.NumVertices()-1)
	run := func() { Reach(g, s, tt, L) }
	for i := 0; i < 5; i++ {
		run()
	}
	if avg := testing.AllocsPerRun(100, run); avg != 0 {
		t.Errorf("warmed Reach allocates %.2f objects/run, want 0", avg)
	}
}

// TestConcurrentWalkPool runs the pooled walks from many goroutines over
// shared graphs and checks every answer against a serial run, so the race
// detector sees walkers handed between goroutines by the pool.
func TestConcurrentWalkPool(t *testing.T) {
	type probe struct {
		g    *graph.Graph
		s, t graph.VertexID
		L    labelset.Set
	}
	type answer struct {
		reach     bool
		fwd, back []graph.VertexID
	}
	rng := rand.New(rand.NewSource(21))
	var probes []probe
	for gi := 0; gi < 3; gi++ {
		n := 200 + 300*gi
		g := testkg.Random(rng, n, 3*n, 5)
		for p := 0; p < 20; p++ {
			probes = append(probes, probe{
				g: g, s: graph.VertexID(rng.Intn(n)), t: graph.VertexID(rng.Intn(n)),
				L: labelset.Set(rng.Uint64()) & g.LabelUniverse(),
			})
		}
	}
	ask := func(p probe) answer {
		return answer{Reach(p.g, p.s, p.t, p.L), ReachableSet(p.g, p.s, p.L), ReachableSetReverse(p.g, p.t, p.L)}
	}
	want := make([]answer, len(probes))
	for i, p := range probes {
		want[i] = ask(p)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < 10; r++ {
				for i := range probes {
					i := (i + w*7) % len(probes)
					got := ask(probes[i])
					if got.reach != want[i].reach || !slices.Equal(got.fwd, want[i].fwd) || !slices.Equal(got.back, want[i].back) {
						t.Errorf("goroutine %d probe %d: concurrent answer differs from serial", w, i)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}
