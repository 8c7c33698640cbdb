package main

import (
	"context"
	"runtime"
	"time"

	"lscr"
)

// metric is one reported number. Samples is the count of timed
// operations (or windows' worth of them) behind a timing, 0 for a
// number that is not a timing.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// report is everything one run printed, as appended to the -out file.
type report struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Traced    bool              `json:"traced"`
	Seconds   float64           `json:"seconds"`
	Short     bool              `json:"short,omitempty"`
	Env       environment       `json:"env"`
	Sizes     sizes             `json:"sizes"`
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Failures  []string          `json:"failures,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
}

// sizes describes the input a run measured.
type sizes struct {
	Vertices  int `json:"vertices"`
	Edges     int `json:"edges"`
	Labels    int `json:"labels"`
	Landmarks int `json:"landmarks"`
	Pool      int `json:"pool"`
}

func (inst *instance) sizes() sizes {
	s := sizes{
		Vertices: inst.base.NumVertices(),
		Edges:    inst.base.NumEdges(),
		Labels:   inst.base.NumLabels(),
		Pool:     len(inst.pool),
	}
	if st, ok := inst.eng.Index(); ok {
		s.Landmarks = st.Landmarks
	}
	return s
}

// setUps is how many times a run sets up; setup_s is their median, so
// one slow page-cache or scheduler moment does not decide it.
const setUps = 3

// compactionCycle is the number of batches between two background
// compactions at the engine's default threshold. Write latencies are
// taken per window of one cycle, so that every window holds the same
// share of batches that ran beside a compaction; windows cut elsewhere
// hold one or two compactions by turns and their 95th percentiles differ.
const compactionCycle = lscr.DefaultCompactAfter / batchOps

// readShare is the part of the window a workload whose writes follow
// its reads spends reading.
const readShare = 0.6

// runEndToEnd measures a workload the way its users meet it, tracing
// off, and returns the end-to-end metrics.
func runEndToEnd(ctx context.Context, w *workload, seed int64, seconds float64, short bool, clients int) (*report, error) {
	var inst *instance
	var setupSecs []float64
	for i := 0; i < setUps; i++ {
		if inst != nil {
			inst.close()
		}
		t0 := time.Now()
		var err error
		if inst, err = setUp(w, seed, short, clients, nil); err != nil {
			return nil, err
		}
		setupSecs = append(setupSecs, time.Since(t0).Seconds())
	}
	defer func() { inst.close() }()
	rep := &report{Workload: w.name, Seed: seed, Seconds: seconds, Short: short, Sizes: inst.sizes()}

	// Resident set of graph + index + caches: the earlier set-ups and
	// the oracle are garbage by now.
	runtime.GC()
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)

	gate := &tally{}
	window := time.Duration(seconds * float64(time.Second))
	// One untimed pass: caches fill, pooled scratch and connections warm.
	readLoop(ctx, inst, clients, len(inst.pool), nil, gate)

	var reads []sample
	var readWall, writeWall time.Duration
	var writes []time.Duration
	if w.concurrentWrites {
		done := make(chan struct{})
		go func() {
			defer close(done)
			writes, writeWall = writeLoop(ctx, inst, after(window), gate)
		}()
		reads, readWall = readLoop(ctx, inst, max(clients-1, 1), 0, done, gate)
		<-done
	} else {
		readWindow := time.Duration(readShare * float64(window))
		reads, readWall = readLoop(ctx, inst, clients, 0, after(readWindow), gate)
		writes, writeWall = writeLoop(ctx, inst, after(window-readWindow), gate)
	}
	if err := inst.verifyFinalState(ctx, gate); err != nil {
		return nil, err
	}

	readP50, readP95, passes := windowed(readLatencies(reads), len(inst.pool))
	writeLats := make([]float64, len(writes))
	for i, d := range writes {
		writeLats[i] = ms(d)
	}
	writeP50, writeP95, writeWindows := windowed(writeLats, compactionCycle)
	rep.Metrics = map[string]metric{
		"setup_s":      {Value: median(setupSecs), Unit: "s", Samples: len(setupSecs)},
		"read_p50_ms":  {Value: readP50, Unit: "ms", Samples: passes * len(inst.pool)},
		"read_p95_ms":  {Value: readP95, Unit: "ms", Samples: passes * len(inst.pool)},
		"read_qps":     {Value: float64(len(reads)) / readWall.Seconds(), Unit: "1/s", Samples: len(reads)},
		"write_p50_ms": {Value: writeP50, Unit: "ms", Samples: min(writeWindows*compactionCycle, len(writeLats))},
		"write_p95_ms": {Value: writeP95, Unit: "ms", Samples: min(writeWindows*compactionCycle, len(writeLats))},
		"write_ops_s":  {Value: float64(len(writes)*batchOps) / writeWall.Seconds(), Unit: "1/s", Samples: len(writes)},
		"heap_mb":      {Value: float64(mem.HeapAlloc) / (1 << 20), Unit: "MB"},
	}
	rep.finish(gate)
	return rep, nil
}

// finish copies the gate's verdict into the report.
func (rep *report) finish(t *tally) {
	rep.Attempted, rep.Failed = t.attempted.Load(), t.failed.Load()
	rep.Failures = t.examples
	rep.Correct = rep.Failed == 0 && rep.Attempted > 0
}
