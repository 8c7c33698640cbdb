package main

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// tally is the correctness gate: every operation attempted, and every
// one that failed, was refused, or answered differently from the oracle.
type tally struct {
	attempted, failed atomic.Int64

	mu       sync.Mutex
	examples []string // the first few failures, for the report
}

func (t *tally) check(ok bool, format string, args ...any) bool {
	t.attempted.Add(1)
	if ok {
		return true
	}
	t.failed.Add(1)
	t.mu.Lock()
	if len(t.examples) < 5 {
		t.examples = append(t.examples, fmt.Sprintf(format, args...))
	}
	t.mu.Unlock()
	return false
}

// checkRead compares one read with the oracle's answer; a request that
// asked for a witness of a true answer must have got one.
func (t *tally) checkRead(q *query, reachable, witnessed bool, err error) bool {
	ok := err == nil && reachable == q.expected && (!q.req.WantWitness || !q.expected || witnessed)
	return t.check(ok, "%s → %s (%s): got %v witness %v err %v, oracle says %v",
		q.req.Source, q.req.Target, q.class, reachable, witnessed, err, q.expected)
}

// sample is one timed read: its position in the op sequence and its
// latency. Position i is pool entry i mod len(pool) of pass i / len(pool).
type sample struct {
	op  int
	lat time.Duration
}

// readLoop is the closed loop: clients goroutines each send their next
// read when the previous one is answered, taking ops from one shared
// sequence that cycles through the pool. It runs until maxOps ops are
// taken (0: no limit) or stop is closed, whichever comes first, and
// returns the samples of correctly answered reads and the wall time.
func readLoop(ctx context.Context, inst *instance, clients, maxOps int, stop <-chan struct{}, gate *tally) ([]sample, time.Duration) {
	var next atomic.Int64
	perClient := make([][]sample, clients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				op := int(next.Add(1)) - 1
				if maxOps > 0 && op >= maxOps {
					return
				}
				i := op % len(inst.pool)
				t0 := time.Now()
				a, err := inst.read(ctx, i)
				lat := time.Since(t0)
				if gate.checkRead(&inst.pool[i], a.reachable, a.witnessed, err) {
					perClient[c] = append(perClient[c], sample{op: op, lat: lat})
				}
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	var all []sample
	for _, s := range perClient {
		all = append(all, s...)
	}
	return all, wall
}

// writeLoop is the one writer: it applies batch after batch until stop
// is closed and returns each acknowledged batch's latency and the wall
// time.
func writeLoop(ctx context.Context, inst *instance, stop <-chan struct{}, gate *tally) ([]time.Duration, time.Duration) {
	var lats []time.Duration
	start := time.Now()
	for {
		select {
		case <-stop:
			return lats, time.Since(start)
		default:
		}
		batch := inst.mut.next()
		t0 := time.Now()
		err := inst.apply(ctx, batch)
		lat := time.Since(t0)
		if gate.check(err == nil, "apply batch %d: %v", inst.mut.batches, err) {
			inst.mut.ack(batch)
			lats = append(lats, lat)
		}
	}
}

// after returns a channel closed once d has passed.
func after(d time.Duration) <-chan struct{} {
	ch := make(chan struct{})
	time.AfterFunc(d, func() { close(ch) })
	return ch
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile returns the q-quantile of sorted (nearest rank).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

func median(vals []float64) float64 {
	sorted := append([]float64(nil), vals...)
	sort.Float64s(sorted)
	if n := len(sorted); n > 0 && n%2 == 0 {
		return (sorted[n/2-1] + sorted[n/2]) / 2
	}
	return quantile(sorted, 0.5)
}

// windowed splits latencies, in the order they were taken, into windows
// of size each (a short tail is dropped unless it is all there is),
// computes the median and 95th percentile per window, and returns the
// median of each across windows. A per-window percentile that is then
// medianed repeats far better between runs than one percentile over
// everything, which a single compaction or GC pause can move.
func windowed(lats []float64, size int) (p50, p95 float64, windows int) {
	var p50s, p95s []float64
	for lo := 0; lo < len(lats); lo += size {
		hi := lo + size
		if hi > len(lats) {
			if lo > 0 {
				break
			}
			hi = len(lats)
		}
		w := append([]float64(nil), lats[lo:hi]...)
		sort.Float64s(w)
		p50s = append(p50s, quantile(w, 0.5))
		p95s = append(p95s, quantile(w, 0.95))
	}
	return median(p50s), median(p95s), len(p50s)
}

// readLatencies orders the samples by op, so that a window of len(pool)
// of them is one pass over the pool, and converts them to milliseconds.
func readLatencies(samples []sample) []float64 {
	sort.Slice(samples, func(i, j int) bool { return samples[i].op < samples[j].op })
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = ms(s.lat)
	}
	return out
}
