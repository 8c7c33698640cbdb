package lscr

// The concurrency tier: these tests are the proof behind the package's
// concurrency contract (one immutable Engine, any number of querying
// goroutines) and are meant to run under the race detector — CI runs
// `go test -race` over them. They use modest graph sizes so the -race
// pass stays fast.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"sync"
	"testing"

	"lscr/internal/testkg"
)

// stressConstraints are small substructure constraints over the testkg
// label vocabulary (l0..l3).
var stressConstraints = []string{
	`SELECT ?x WHERE { ?x <l0> ?y. }`,
	`SELECT ?x WHERE { ?x <l1> ?y. }`,
	`SELECT ?x WHERE { ?x <l0> ?y. ?y <l1> ?z. }`,
}

// stressWorkload builds a deterministic mixed-algorithm request set over
// a random KG.
func stressWorkload(rng *rand.Rand, nVertices, count int) []Request {
	algos := []Algorithm{INS, UIS, UISStar}
	labelSets := [][]string{
		nil, // all labels
		{"l0", "l1"},
		{"l0", "l1", "l2"},
		{"l1", "l2", "l3"},
	}
	qs := make([]Request, count)
	for i := range qs {
		qs[i] = Request{
			Source:     "u" + strconv.Itoa(rng.Intn(nVertices)),
			Target:     "u" + strconv.Itoa(rng.Intn(nVertices)),
			Labels:     labelSets[rng.Intn(len(labelSets))],
			Constraint: stressConstraints[rng.Intn(len(stressConstraints))],
			Algorithm:  algos[rng.Intn(len(algos))],
		}
	}
	return qs
}

// TestEngineConcurrentStress hammers a single Engine with mixed
// single-constraint and conjunctive Query calls, with and without
// witnesses, from many goroutines and checks every answer against a
// serial baseline. Run it under -race to prove the pooled scratch keeps
// goroutines disjoint.
func TestEngineConcurrentStress(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(7))
	const nVertices = 60
	g := testkg.Random(rng, nVertices, 220, 4)
	eng := NewEngine(FromGraph(g), Options{IndexSeed: 3})

	qs := stressWorkload(rng, nVertices, 48)

	// Serial ground truth per operation kind. A single-constraint
	// conjunction is semantically the plain query, so the conjunctive
	// search must agree with the selected algorithm on it.
	reachWant := make([]bool, len(qs))
	for i, q := range qs {
		res, err := eng.Query(ctx, q)
		if err != nil {
			t.Fatalf("serial Query %d: %v", i, err)
		}
		reachWant[i] = res.Reachable
	}

	const goroutines = 12
	const rounds = 4
	var wg sync.WaitGroup
	errc := make(chan error, goroutines)
	for gi := 0; gi < goroutines; gi++ {
		wg.Add(1)
		go func(gi int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for i, q := range qs {
					kind := (gi + r + i) % 4
					if kind >= 2 {
						q.Algorithm = Conjunctive
					}
					q.WantWitness = kind%2 == 1
					res, err := eng.Query(ctx, q)
					got := res.Reachable
					if err == nil && got && q.WantWitness && res.Witness == nil {
						err = fmt.Errorf("true %v answer without witness", q.Algorithm)
					}
					if err != nil {
						errc <- fmt.Errorf("goroutine %d round %d query %d: %v", gi, r, i, err)
						return
					}
					if got != reachWant[i] {
						errc <- fmt.Errorf("goroutine %d round %d query %d: got %v, want %v",
							gi, r, i, got, reachWant[i])
						return
					}
				}
			}
		}(gi)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// TestReachBatchMatchesSerial: a batch at any fan-out returns exactly
// the serial results, including per-query errors in their slots.
func TestReachBatchMatchesSerial(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(11))
	const nVertices = 50
	g := testkg.Random(rng, nVertices, 180, 4)
	eng := NewEngine(FromGraph(g), Options{IndexSeed: 9})

	qs := stressWorkload(rng, nVertices, 30)
	// Poison a few slots with queries that must fail without sinking the
	// batch.
	qs[4].Source = "no-such-vertex"
	qs[11].Labels = []string{"no-such-label"}
	qs[17].Constraint = "garbage ("

	serial := make([]QueryOutcome, len(qs))
	for i, q := range qs {
		serial[i].Response, serial[i].Err = eng.Query(ctx, q)
	}
	for _, conc := range []int{0, 1, 3, 16} {
		got := eng.QueryBatch(ctx, qs, BatchOptions{Concurrency: conc})
		if len(got) != len(qs) {
			t.Fatalf("concurrency %d: %d results for %d queries", conc, len(got), len(qs))
		}
		for i := range qs {
			if (got[i].Err == nil) != (serial[i].Err == nil) {
				t.Fatalf("concurrency %d query %d: err = %v, want %v", conc, i, got[i].Err, serial[i].Err)
			}
			if got[i].Err != nil {
				continue
			}
			if got[i].Response.Reachable != serial[i].Response.Reachable ||
				got[i].Response.SatisfyingVertices != serial[i].Response.SatisfyingVertices {
				t.Fatalf("concurrency %d query %d: got %+v, want %+v",
					conc, i, got[i].Response, serial[i].Response)
			}
		}
	}
	if !errors.Is(eng.QueryBatch(ctx, qs[4:5], BatchOptions{Concurrency: 1})[0].Err, ErrUnknownVertex) {
		t.Error("unknown-vertex error lost its identity through QueryBatch")
	}
	if out := eng.QueryBatch(ctx, nil, BatchOptions{Concurrency: 4}); len(out) != 0 {
		t.Errorf("empty batch returned %d results", len(out))
	}
}

// TestReachBatchConcurrentCallers: QueryBatch itself may be invoked from
// several goroutines on one Engine (the lscrd server does exactly this).
func TestReachBatchConcurrentCallers(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(23))
	const nVertices = 40
	g := testkg.Random(rng, nVertices, 140, 4)
	eng := NewEngine(FromGraph(g), Options{IndexSeed: 1})
	qs := stressWorkload(rng, nVertices, 20)
	want := eng.QueryBatch(ctx, qs, BatchOptions{Concurrency: 1})

	var wg sync.WaitGroup
	errc := make(chan error, 8)
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got := eng.QueryBatch(ctx, qs, BatchOptions{Concurrency: 2})
			for i := range qs {
				if (got[i].Err == nil) != (want[i].Err == nil) ||
					got[i].Err == nil && got[i].Response.Reachable != want[i].Response.Reachable {
					errc <- fmt.Errorf("query %d diverged under concurrent batches", i)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// TestConstraintCacheConcurrentStress: many goroutines hammer one
// cached Engine with a small pool of repeated constraints through Query
// and QueryBatch — the production shape the cache exists for. Run under
// -race: concurrent misses publish racing (but equivalent) entries, and
// hits share one immutable entry across goroutines. Afterwards the
// counters must balance exactly: every successful Query performs one
// cache lookup.
func TestConstraintCacheConcurrentStress(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(41))
	const nVertices = 60
	g := testkg.Random(rng, nVertices, 220, 4)
	eng := NewEngine(FromGraph(g), Options{IndexSeed: 5})

	qs := stressWorkload(rng, nVertices, 40)
	want := make([]bool, len(qs))
	for i, q := range qs {
		res, err := eng.Query(ctx, q)
		if err != nil {
			t.Fatalf("serial Query %d: %v", i, err)
		}
		want[i] = res.Reachable
	}
	base := eng.CacheStats()

	const goroutines = 10
	const rounds = 3
	var wg sync.WaitGroup
	errc := make(chan error, goroutines)
	for gi := 0; gi < goroutines; gi++ {
		wg.Add(1)
		go func(gi int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				if (gi+r)%2 == 0 {
					for i, q := range qs {
						res, err := eng.Query(ctx, q)
						if err != nil {
							errc <- fmt.Errorf("goroutine %d round %d query %d: %v", gi, r, i, err)
							return
						}
						if res.Reachable != want[i] {
							errc <- fmt.Errorf("goroutine %d round %d query %d: got %v, want %v",
								gi, r, i, res.Reachable, want[i])
							return
						}
					}
				} else {
					for i, br := range eng.QueryBatch(ctx, qs, BatchOptions{Concurrency: 4}) {
						if br.Err != nil {
							errc <- fmt.Errorf("goroutine %d round %d batch query %d: %v", gi, r, i, br.Err)
							return
						}
						if br.Response.Reachable != want[i] {
							errc <- fmt.Errorf("goroutine %d round %d batch query %d: got %v, want %v",
								gi, r, i, br.Response.Reachable, want[i])
							return
						}
					}
				}
			}
		}(gi)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	st := eng.CacheStats()
	lookups := st.Hits + st.Misses - base.Hits - base.Misses
	wantLookups := int64(goroutines * rounds * len(qs))
	if lookups != wantLookups {
		t.Errorf("cache lookups = %d, want %d (stats %+v)", lookups, wantLookups, st)
	}
	if st.Entries != len(stressConstraints) {
		t.Errorf("cache entries = %d, want %d distinct constraints", st.Entries, len(stressConstraints))
	}
	if st.Misses > int64(len(stressConstraints))*goroutines {
		t.Errorf("misses = %d — far more than racing first-compiles can explain", st.Misses)
	}
}

// TestCacheAnswerIdentity: a cached engine and a cache-disabled engine
// answer an identical mixed-algorithm workload identically — Reachable,
// SatisfyingVertices and error identity all match.
func TestCacheAnswerIdentity(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(59))
	const nVertices = 50
	g := testkg.Random(rng, nVertices, 180, 4)
	kg := FromGraph(g)
	cached := NewEngine(kg, Options{IndexSeed: 2})
	uncached := NewEngine(kg, Options{IndexSeed: 2, ConstraintCacheSize: -1})

	qs := stressWorkload(rng, nVertices, 45)
	// Cover every algorithm explicitly plus the error paths.
	for i := range qs {
		qs[i].Algorithm = []Algorithm{INS, UIS, UISStar}[i%3]
	}
	qs[7].Source = "no-such-vertex"
	qs[13].Constraint = "garbage ("
	qs[19].Constraint = `SELECT ?x WHERE { ?x <l0> <no-such-entity>. }` // unsatisfiable

	// Cache lookups happen once the endpoints resolve: a query that
	// answers, or fails on its constraint, looked its text up; one that
	// fails on a vertex name never reached the cache.
	valid := map[string]bool{}
	var lookups, invalid int
	for round := 0; round < 2; round++ { // round 1 runs cached fully warm
		for i, q := range qs {
			cr, cerr := cached.Query(ctx, q)
			ur, uerr := uncached.Query(ctx, q)
			if (cerr == nil) != (uerr == nil) {
				t.Fatalf("round %d query %d: cached err %v, uncached err %v", round, i, cerr, uerr)
			}
			if cerr != nil {
				if cerr.Error() != uerr.Error() {
					t.Fatalf("round %d query %d: error text diverged: %q vs %q", round, i, cerr, uerr)
				}
				if errors.Is(cerr, ErrConstraintSyntax) || errors.Is(cerr, ErrInvalidConstraint) {
					lookups++
					invalid++
				}
				continue
			}
			lookups++
			valid[q.Constraint] = true
			if cr.Reachable != ur.Reachable || cr.SatisfyingVertices != ur.SatisfyingVertices {
				t.Fatalf("round %d query %d (%v): cached %+v, uncached %+v",
					round, i, q.Algorithm, cr, ur)
			}
		}
	}
	// Exact arithmetic: each distinct valid constraint misses once and is
	// memoized, every later lookup of it hits; a constraint that fails to
	// compile misses on every lookup and is never memoized.
	st := cached.CacheStats()
	if st.Entries != len(valid) || st.Misses != int64(len(valid)+invalid) || st.Hits != int64(lookups)-st.Misses {
		t.Errorf("cache stats %+v, want %d entries, %d misses, %d hits (%d lookups, %d distinct valid constraints, %d invalid lookups)",
			st, len(valid), len(valid)+invalid, lookups-len(valid)-invalid, lookups, len(valid), invalid)
	}
}

// TestConstraintCacheEviction: at capacity the cache evicts by recency
// and never exceeds its bound. Capacity 1 degrades to a single strict
// LRU shard, making eviction deterministic.
func TestConstraintCacheEviction(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	const nVertices = 30
	g := testkg.Random(rng, nVertices, 100, 4)
	eng := NewEngine(FromGraph(g), Options{IndexSeed: 1, ConstraintCacheSize: 1})

	ctx := context.Background()
	q := Request{Source: "u0", Target: "u1"}
	reach := func(cons string) {
		q.Constraint = cons
		if _, err := eng.Query(ctx, q); err != nil {
			t.Fatalf("%s: %v", cons, err)
		}
	}
	a := `SELECT ?x WHERE { ?x <l0> ?y. }`
	b := `SELECT ?x WHERE { ?x <l1> ?y. }`
	reach(a) // miss, insert a
	reach(a) // hit
	reach(b) // miss, evicts a
	reach(a) // miss again: a was evicted
	st := eng.CacheStats()
	if st.Hits != 1 || st.Misses != 3 || st.Entries != 1 {
		t.Fatalf("capacity-1 stats = %+v (want 1 hit, 3 misses, 1 entry)", st)
	}

	// A larger cache never exceeds its capacity under distinct-constraint
	// pressure, regardless of shard hashing.
	const capacity = 8
	big := NewEngine(FromGraph(g), Options{IndexSeed: 1, ConstraintCacheSize: capacity})
	for i := 0; i < nVertices; i++ {
		q.Constraint = fmt.Sprintf(`SELECT ?x WHERE { ?x <l0> <u%d>. }`, i)
		if _, err := big.Query(ctx, q); err != nil {
			t.Fatalf("distinct constraint %d: %v", i, err)
		}
		if st := big.CacheStats(); st.Entries > capacity {
			t.Fatalf("after %d distinct constraints: %d entries > capacity %d", i+1, st.Entries, capacity)
		}
	}
	if st := big.CacheStats(); st.Capacity != capacity {
		t.Fatalf("capacity reported as %d, want %d", st.Capacity, capacity)
	}
}

// newEngineOnProcs builds an engine with GOMAXPROCS set to procs, the
// index build's worker count, and restores the previous setting.
func newEngineOnProcs(procs int, kg *KG, opts Options) *Engine {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	return NewEngine(kg, opts)
}

// TestEngineIndexWorkersDeterminism: engines whose index was built on
// different worker counts (GOMAXPROCS) must report identical index
// statistics and answer a random workload identically.
func TestEngineIndexWorkersDeterminism(t *testing.T) {
	ctx := context.Background()
	for _, seed := range []int64{1, 2, 3} {
		rng := rand.New(rand.NewSource(seed))
		const nVertices = 70
		g := testkg.Random(rng, nVertices, 260, 4)
		kg := FromGraph(g)
		ref := newEngineOnProcs(1, kg, Options{IndexSeed: seed})
		refStats, ok := ref.Index()
		if !ok {
			t.Fatal("reference engine has no index")
		}
		qs := stressWorkload(rng, nVertices, 25)
		for i := range qs {
			qs[i].Algorithm = INS // the index-dependent algorithm
		}
		refAns := ref.QueryBatch(ctx, qs, BatchOptions{Concurrency: 1})
		for _, workers := range []int{2, 4, 13} {
			par := newEngineOnProcs(workers, kg, Options{IndexSeed: seed})
			parStats, _ := par.Index()
			if parStats != refStats {
				t.Fatalf("seed %d workers %d: index stats %+v, want %+v",
					seed, workers, parStats, refStats)
			}
			for i, br := range par.QueryBatch(ctx, qs, BatchOptions{Concurrency: 4}) {
				if br.Err != nil {
					t.Fatalf("seed %d workers %d query %d: %v", seed, workers, i, br.Err)
				}
				if br.Response.Reachable != refAns[i].Response.Reachable {
					t.Fatalf("seed %d workers %d query %d: answers diverge", seed, workers, i)
				}
			}
		}
	}
}
