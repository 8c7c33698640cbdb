package cluster_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lscr"
	"lscr/api"
	"lscr/client"
	"lscr/internal/cluster"
	"lscr/internal/failpoint"
	"lscr/internal/graph"
	"lscr/internal/lubm"
	"lscr/server"
)

// Chaos schedule knobs.
const (
	chaosSeed               = 42
	chaosSchedules          = 10 // one full pass over chaosMenu
	chaosBatchesPerSchedule = 3
	chaosOpsPerBatch        = 6
	chaosProbeQueries       = 12
	chaosReadsPerSchedule   = 4

	overloadInflight  = 4
	overloadQueue     = 4
	overloadQueueWait = 10 * time.Millisecond
	overloadDelay     = 2 * time.Millisecond
	overloadClients   = 16
	overloadWindow    = 500 * time.Millisecond
)

// chaosMenu is the per-schedule fault rotation: each entry is one
// LSCR_FAILPOINTS-style activation hitting a different layer. Torn
// values cut mid-record (WAL records and segment headers are longer
// than the prefixes), exercising the truncation/recovery paths rather
// than clean absence.
var chaosMenu = []string{
	"wal-append=error-once",
	"wal-append=torn=9,once",
	"wal-sync=error-once",
	"seg-write=torn=16,once",
	"seg-sync=error-once",
	"seg-rename=error-once",
	"wal-rotate-rename=error-once",
	"dir-sync=error-once",
	"replicate-read=error-every=4",
	"gateway-dispatch=error-every=5",
}

// swapHandler lets the writer restart in place: the listener and URL
// survive while the handler generation behind them is swapped.
type swapHandler struct {
	h atomic.Pointer[http.Handler]
}

func (s *swapHandler) swap(h http.Handler) { s.h.Store(&h) }

func (s *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	(*s.h.Load()).ServeHTTP(w, r)
}

// TestChaosSchedules is the robustness proof for the serving stack: a
// writer, two WAL-tailing followers and the gateway run a mutation
// workload over LUBM-1 while deterministic fault schedules fire at the
// storage, replication and dispatch failpoint sites. Every schedule
// asserts the fail-stop contract — an injected write failure poisons
// the writer, reads keep serving, a restart recovers — and per-epoch
// identity against a fault-free in-memory oracle that applies the same
// batches and seals at the same points (the oracle never touches
// storage, so the armed sites cannot reach it). An overload phase then
// saturates an admission-gated writer at ~2x capacity and requires
// explicit shedding with bounded admitted latency. The run ends with a
// goroutine-leak check: after teardown the process must return to its
// pre-chaos goroutine count.
func TestChaosSchedules(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos schedules need a multi-second cluster run")
	}
	failpoint.DisarmAll()
	defer failpoint.DisarmAll()

	cfg := lubm.DefaultConfig(1)
	cfg.Seed = chaosSeed
	g := lubm.Generate(cfg)
	ctx := context.Background()
	dir := t.TempDir()
	opts := lscr.Options{IndexSeed: chaosSeed, CompactAfter: -1}
	eng, err := lscr.Create(dir, lscr.FromGraph(g), opts)
	if err != nil {
		t.Fatal(err)
	}
	// The fault-free oracle: an in-memory engine applying the same
	// batches and sealing at the same epochs.
	oracle := lscr.NewEngine(lscr.FromGraph(g), opts)

	// One closer list, run exactly once — teardown must complete before
	// the goroutine-leak check, and the deferred backstop must not run
	// things twice.
	var closers []func()
	var closeOnce sync.Once
	shutdown := func() {
		closeOnce.Do(func() {
			for i := len(closers) - 1; i >= 0; i-- {
				closers[i]()
			}
		})
	}
	defer shutdown()

	sw := &swapHandler{}
	sw.swap(server.New(eng, eng.KG()))
	writerSrv := serveOn(t, "127.0.0.1:0", sw)
	closers = append(closers, func() { eng.Close() }, writerSrv.Close)

	fcfg := cluster.FollowerConfig{Writer: writerSrv.URL, Poll: 100 * time.Millisecond, Retry: 10 * time.Millisecond}
	f1, err := cluster.StartFollower(ctx, fcfg)
	if err != nil {
		t.Fatal(err)
	}
	closers = append(closers, f1.Close)
	f2, err := cluster.StartFollower(ctx, fcfg)
	if err != nil {
		t.Fatal(err)
	}
	closers = append(closers, f2.Close)
	f1Srv := serveOn(t, "127.0.0.1:0", f1)
	f2Srv := serveOn(t, "127.0.0.1:0", f2)
	closers = append(closers, f1Srv.Close, f2Srv.Close)

	gw := cluster.NewCoordinator(cluster.Config{
		Writer:   writerSrv.URL,
		Replicas: []string{f1Srv.URL, f2Srv.URL},
		Cooldown: 50 * time.Millisecond,
		Logf:     func(string, ...any) {},
	})
	gwSrv := serveOn(t, "127.0.0.1:0", gw)
	closers = append(closers, gw.Close, gwSrv.Close)
	readC := client.New(gwSrv.URL)

	// Goroutine baseline after the cluster is up: the leak check asks
	// whether chaos (restarts, rebootstraps, shed reads) left strays
	// beyond what teardown reclaims.
	baseline := runtime.NumGoroutine()

	wire := chaosProbes(g)
	probe := make([]lscr.Request, len(wire))
	for i, q := range wire {
		if probe[i], err = q.ToRequest(); err != nil {
			t.Fatal(err)
		}
	}
	bo := lscr.BatchOptions{Concurrency: runtime.GOMAXPROCS(0)}
	// compare requires got to answer the probe set exactly as want does:
	// same error-ness, reachability, Stats and |V(S,G)|.
	compare := func(when string, want, got *lscr.Engine) {
		t.Helper()
		wa, ga := want.QueryBatch(ctx, probe, bo), got.QueryBatch(ctx, probe, bo)
		for i := range probe {
			a, b := wa[i], ga[i]
			same := (a.Err == nil) == (b.Err == nil)
			if same && a.Err == nil {
				same = a.Response.Reachable == b.Response.Reachable &&
					a.Response.Stats == b.Response.Stats &&
					a.Response.SatisfyingVertices == b.Response.SatisfyingVertices
			}
			if !same {
				t.Fatalf("%s: probe %d diverged:\n  want: %s\n  got:  %s", when, i, outcome(a), outcome(b))
			}
		}
	}

	writerRestarts := 0
	// restart recovers a poisoned writer in place: close, reopen the
	// store, swap the handler generation.
	restart := func() {
		t.Helper()
		eng.Close()
		if eng, err = lscr.Open(dir, opts); err != nil {
			t.Fatalf("restart writer: %v", err)
		}
		sw.swap(server.New(eng, eng.KG()))
		writerRestarts++
	}
	// realign brings the oracle to the restarted writer's epoch: the
	// fsync-ambiguity window means a failed Apply (or seal) may still
	// have become durable, in which case the recovered writer is one
	// epoch ahead and the oracle replays the pending step.
	realign := func(pending []lscr.Mutation, sealing bool) {
		t.Helper()
		we, oe := eng.Epoch().Epoch, oracle.Epoch().Epoch
		var err error
		switch {
		case we == oe:
			// The failed step was lost on both sides.
		case we == oe+1 && !sealing:
			_, err = oracle.Apply(ctx, pending)
		case we == oe+1 && sealing:
			_, err = oracle.Compact(ctx)
		default:
			t.Fatalf("writer at epoch %d vs oracle %d after restart", we, oe)
		}
		if err != nil {
			t.Fatalf("realign oracle: %v", err)
		}
	}

	var faults, gatewayReads, gatewayReadErrs int
	script := chaosScript(g, chaosSchedules*chaosBatchesPerSchedule, chaosOpsPerBatch)
	next := 0
	for s := 0; s < chaosSchedules; s++ {
		failpoint.Seed(chaosSeed + int64(s))
		if err := failpoint.Arm(chaosMenu[s%len(chaosMenu)]); err != nil {
			t.Fatal(err)
		}

		for b := 0; b < chaosBatchesPerSchedule && next < len(script); b++ {
			batch := script[next]
			next++
			if _, err := eng.Apply(ctx, batch); err != nil {
				faults++
				// Fail-stop: the engine must now be poisoned and still
				// answer reads from its last epoch.
				if eng.Poisoned() == nil {
					t.Fatalf("schedule %d: Apply failed (%v) without poisoning", s, err)
				}
				if o := eng.QueryBatch(ctx, probe[:1], bo)[0]; o.Err != nil {
					t.Fatalf("schedule %d: poisoned writer stopped serving reads: %v", s, o.Err)
				}
				failpoint.DisarmAll()
				restart()
				realign(batch, false)
				continue
			}
			if _, err := oracle.Apply(ctx, batch); err != nil {
				t.Fatalf("schedule %d: oracle apply: %v", s, err)
			}
		}

		// Seal every other schedule: compactions hit the segment-write,
		// seal-rename, rotation and dir-sync sites.
		if s%2 == 1 {
			if _, err := eng.Compact(ctx); err != nil {
				faults++
				if eng.Poisoned() == nil {
					t.Fatalf("schedule %d: Compact failed (%v) without poisoning", s, err)
				}
				failpoint.DisarmAll()
				restart()
				realign(nil, true)
			} else if _, err := oracle.Compact(ctx); err != nil {
				t.Fatalf("schedule %d: oracle compact: %v", s, err)
			}
		}

		// A few reads through the gateway while the schedule's faults
		// are still armed: redispatch and client retries should absorb
		// most of the turbulence; the bound below caps the failure rate.
		for r := 0; r < chaosReadsPerSchedule; r++ {
			gatewayReads++
			if _, err := readC.Query(ctx, wire[r%len(wire)]); err != nil {
				gatewayReadErrs++
			}
		}

		failpoint.DisarmAll()
		if eng.Poisoned() != nil {
			// A site armed for this schedule fired on a background path;
			// recover before the identity check.
			restart()
			realign(nil, false)
		}
		compare(fmt.Sprintf("schedule %d (%s): writer vs oracle", s, chaosMenu[s%len(chaosMenu)]), oracle, eng)
	}

	// Convergence: both followers must reach the final epoch and answer
	// the probe set bit-identically to the writer.
	head := eng.Epoch().Epoch
	waitEpoch(t, f1, head)
	waitEpoch(t, f2, head)
	compare("follower 1 vs writer", eng, f1.Engine())
	compare("follower 2 vs writer", eng, f2.Engine())

	switch {
	case faults == 0:
		t.Fatal("no fault fired — the schedules exercised nothing")
	case writerRestarts == 0:
		t.Fatal("no schedule poisoned the writer — fail-stop recovery untested")
	case gatewayReadErrs*5 > gatewayReads:
		t.Fatalf("%d/%d gateway reads failed under chaos (bound: 20%%)", gatewayReadErrs, gatewayReads)
	}

	// Overload: swap an admission-gated handler generation over the
	// writer, slow every query via the serve-delay site, and drive ~2x
	// the gate's capacity. Shedding must be explicit (429), and what is
	// admitted must answer with bounded latency.
	admitted, sheds, p99 := overload(t, eng, writerSrv.URL, sw)
	sw.swap(server.New(eng, eng.KG()))
	switch {
	case sheds == 0:
		t.Fatal("2x saturation produced no shedding")
	case admitted == 0:
		t.Fatal("overload phase admitted nothing")
	case p99 > 500*time.Millisecond:
		t.Fatalf("admitted p99 %v exceeds the 500ms bound", p99)
	}
	t.Logf("%d schedules: %d faults, %d writer restarts, %d follower bootstraps, %d/%d gateway reads failed; overload: %d admitted, %d shed, admitted p99 %v",
		chaosSchedules, faults, writerRestarts, f1.Bootstraps()+f2.Bootstraps(), gatewayReadErrs, gatewayReads, admitted, sheds, p99)

	// Teardown, then the leak check: the goroutine count must return to
	// the baseline (plus a small slack for runtime/network strays).
	shutdown()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline+4 {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked across the chaos run: %d, baseline %d", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// outcome renders one probe answer for a divergence report.
func outcome(o lscr.QueryOutcome) string {
	if o.Err != nil {
		return "error: " + o.Err.Error()
	}
	r := o.Response
	return fmt.Sprintf("reachable=%v stats=%+v |V(S,G)|=%d", r.Reachable, r.Stats, r.SatisfyingVertices)
}

// chaosProbes rotates the paper's constraints over random vertex pairs
// and all four algorithms, each over the whole label universe, so the
// searches cover most of the graph and their Stats expose any
// divergence in it — INS's included, which also read the index.
func chaosProbes(g *graph.Graph) []api.QueryRequest {
	consts := lubm.Constraints()
	r := rand.New(rand.NewSource(chaosSeed))
	algos := []lscr.Algorithm{lscr.INS, lscr.UIS, lscr.UISStar, lscr.Conjunctive}
	probes := make([]api.QueryRequest, chaosProbeQueries)
	for i := range probes {
		q := api.QueryRequest{
			Source:    g.VertexName(graph.VertexID(r.Intn(g.NumVertices()))),
			Target:    g.VertexName(graph.VertexID(r.Intn(g.NumVertices()))),
			Algorithm: api.AlgorithmName(algos[i%len(algos)]),
		}
		if algos[i%len(algos)] == lscr.Conjunctive {
			q.Constraints = []string{consts[i%len(consts)].SPARQL, consts[(i+1)%len(consts)].SPARQL}
		} else {
			q.Constraint = consts[i%len(consts)].SPARQL
		}
		probes[i] = q
	}
	return probes
}

// chaosScript precomputes the mutation batches: inserts between random
// vertices (every fifth through a fresh one) and, every third op, a
// delete drawn from the instances known to survive, so every batch
// validates.
func chaosScript(g *graph.Graph, batches, opsPerBatch int) [][]lscr.Mutation {
	r := rand.New(rand.NewSource(chaosSeed + 1))
	type edge struct{ s, l, t string }
	var pool []edge
	g.Triples(func(t graph.Triple) bool {
		pool = append(pool, edge{g.VertexName(t.Subject), g.LabelName(t.Label), g.VertexName(t.Object)})
		return true
	})
	script := make([][]lscr.Mutation, batches)
	for bi := range script {
		batch := make([]lscr.Mutation, 0, opsPerBatch)
		for oi := 0; oi < opsPerBatch; oi++ {
			if oi%3 == 2 {
				i := r.Intn(len(pool))
				e := pool[i]
				pool[i] = pool[len(pool)-1]
				pool = pool[:len(pool)-1]
				batch = append(batch, lscr.Mutation{Op: lscr.OpDeleteEdge, Subject: e.s, Label: e.l, Object: e.t})
				continue
			}
			s := g.VertexName(graph.VertexID(r.Intn(g.NumVertices())))
			if oi%5 == 4 {
				s = fmt.Sprintf("live_%d_%d", bi, oi)
			}
			l := g.LabelName(graph.Label(r.Intn(g.NumLabels())))
			t := g.VertexName(graph.VertexID(r.Intn(g.NumVertices())))
			batch = append(batch, lscr.Mutation{Op: lscr.OpAddEdge, Subject: s, Label: l, Object: t})
			pool = append(pool, edge{s, l, t})
		}
		script[bi] = batch
	}
	return script
}

// overload drives an admission-gated writer at ~2x capacity for
// overloadWindow and returns the admitted request count, the sheds and
// the admitted p99 latency. Any reply outside the 400/429 contract, or
// a 429 without Retry-After, fails the test.
func overload(t *testing.T, eng *lscr.Engine, writerURL string, sw *swapHandler) (admitted int, sheds int64, p99 time.Duration) {
	t.Helper()
	sw.swap(server.New(eng, eng.KG(), server.WithAdmission(server.AdmissionOptions{
		MaxInflight: overloadInflight,
		MaxQueue:    overloadQueue,
		QueueWait:   overloadQueueWait,
		RetryAfter:  time.Second,
	})))
	if err := failpoint.Set(server.FPServe, "delay="+overloadDelay.String()); err != nil {
		t.Fatal(err)
	}
	defer failpoint.DisarmAll()

	// Raw per-attempt requests: client retries would turn sheds into
	// waiting, hiding the thing being measured.
	c := client.New(writerURL, client.WithRetry(1, 0))
	var (
		mu        sync.Mutex
		latencies []time.Duration
		shed      atomic.Int64
		hardErrs  atomic.Int64
	)
	ctx := context.Background()
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < overloadClients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < overloadWindow {
				qstart := time.Now()
				_, err := c.Query(ctx, api.QueryRequest{Source: "no-such-vertex", Target: "no-such-vertex"})
				elapsed := time.Since(qstart)
				var apiErr *client.APIError
				status := 0
				if errors.As(err, &apiErr) {
					status = apiErr.StatusCode
				}
				switch {
				case err == nil || status == http.StatusBadRequest:
					// An unknown-vertex 400 still went through the gate,
					// the serve-delay site and the engine — what matters
					// here is admission latency, not reachability.
					mu.Lock()
					latencies = append(latencies, elapsed)
					mu.Unlock()
				case status == http.StatusTooManyRequests:
					if apiErr.RetryAfter <= 0 {
						hardErrs.Add(1) // a shed without Retry-After is a bug
					}
					shed.Add(1)
				default:
					hardErrs.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if n := hardErrs.Load(); n > 0 {
		t.Fatalf("%d overload requests failed outside the 400/429 contract", n)
	}
	if n := len(latencies); n > 0 {
		sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
		p99 = latencies[(n*99)/100]
	}
	return len(latencies), shed.Load(), p99
}
