package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"lscr"
	"lscr/internal/graph"
	"lscr/internal/labelset"
	core "lscr/internal/lscr"
	"lscr/internal/pattern"
	"lscr/internal/segment"
	"lscr/internal/sparql"
)

// span is one timed call into a layer. Spans of one request share Req;
// Parent names the span of the same request that this one ran inside.
// A span with no parent is either a root or a replay: the same call made
// again from outside, because the program does not yet time it itself.
type span struct {
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Req    int64  `json:"req"`
	Class  string `json:"class,omitempty"` // constraint class of the request
	Start  int64  `json:"start_ns"`        // since the recorder started
	End    int64  `json:"end_ns"`
	Bytes  int    `json:"bytes,omitempty"` // response body size, on server.serve
}

// recorder keeps spans in memory until the run ends.
type recorder struct {
	t0  time.Time
	on  atomic.Bool  // middleware records only while on
	req atomic.Int64 // id of the request in flight; the traced run has one client

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) add(s span, start time.Time, d time.Duration) {
	s.Start = int64(start.Sub(r.t0))
	s.End = s.Start + int64(d)
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// timed runs fn and records it as one span of the request in flight.
func (r *recorder) timed(name, parent, class string, fn func()) time.Duration {
	start := time.Now()
	fn()
	d := time.Since(start)
	r.add(span{Name: name, Parent: parent, Req: r.req.Load(), Class: class}, start, d)
	return d
}

// countingWriter counts the response body's bytes.
type countingWriter struct {
	http.ResponseWriter
	n int
}

func (w *countingWriter) Write(b []byte) (int, error) {
	w.n += len(b)
	return w.ResponseWriter.Write(b)
}

// middleware records one span per /v1/query request h serves.
func (r *recorder) middleware(name, parent string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if !r.on.Load() || req.URL.Path != "/v1/query" {
			h.ServeHTTP(w, req)
			return
		}
		cw := &countingWriter{ResponseWriter: w}
		start := time.Now()
		h.ServeHTTP(cw, req)
		r.add(span{Name: name, Parent: parent, Req: r.req.Load(), Bytes: cw.n}, start, time.Since(start))
	})
}

// durations returns, in milliseconds, every span called name (of the
// given class, when class is not empty).
func (r *recorder) durations(name, class string) []float64 {
	var out []float64
	for _, s := range r.spans {
		if s.Name == name && (class == "" || s.Class == class) {
			out = append(out, ms(time.Duration(s.End-s.Start)))
		}
	}
	return out
}

// selfTimes returns, per span called name, its duration minus the
// durations of the spans of the same request that name it as parent.
func (r *recorder) selfTimes(name string) []float64 {
	children := map[int64]time.Duration{}
	for _, s := range r.spans {
		if s.Parent == name {
			children[s.Req] += time.Duration(s.End - s.Start)
		}
	}
	var out []float64
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, ms(time.Duration(s.End-s.Start)-children[s.Req]))
		}
	}
	return out
}

func (r *recorder) write(path string) error {
	data, err := json.Marshal(r.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// tracedReads is how many pooled reads each traced section follows; the
// warm-up takes a later stretch of the pool, which on a pool of distinct
// texts leaves the traced ones uncached.
const tracedReads = 256

// stretch returns n pool indices starting at k·n, wrapping around.
func stretch(pool []query, k, n int) []int {
	n = min(n, len(pool))
	out := make([]int, n)
	for i := range out {
		out[i] = (k*n + i) % len(pool)
	}
	return out
}

// tracer is one traced run: one client, one pass, spans around every
// call into a layer.
type tracer struct {
	inst    *instance
	rec     *recorder
	gate    *tally
	metrics map[string]metric
}

func (tr *tracer) set(name string, value float64, unit string, samples int) {
	tr.metrics[name] = metric{Value: value, Unit: unit, Samples: samples}
}

// setMedian reports the median of a list of millisecond timings.
func (tr *tracer) setMedian(name string, vals []float64) {
	tr.set(name, median(vals), "ms", len(vals))
}

// runTraced is the per-layer run: the workload's reads followed through
// the engine's layers, then through the serving path, then a stretch of
// writes followed through graph, index and log. It reports no
// end-to-end metric; those are measured with tracing off.
func runTraced(ctx context.Context, w *workload, seed int64, short bool, spansPath string) (*report, error) {
	rec := newRecorder()
	inst, err := setUp(w, seed, short, 1, rec)
	if err != nil {
		return nil, err
	}
	defer inst.close()
	tr := &tracer{inst: inst, rec: rec, gate: &tally{}, metrics: map[string]metric{}}
	rep := &report{Workload: w.name, Seed: seed, Traced: true, Short: short, Sizes: inst.sizes()}

	idx, embedOverhead, err := tr.traceReads(ctx)
	if err != nil {
		return nil, err
	}
	servedOverhead, err := tr.traceServing(ctx)
	if err != nil {
		return nil, err
	}
	if w.served {
		tr.set("trace.overhead_ratio", servedOverhead, "ratio", 0)
	} else {
		tr.set("trace.overhead_ratio", embedOverhead, "ratio", 0)
	}
	if err := tr.traceWrites(ctx, idx); err != nil {
		return nil, err
	}
	if spansPath != "" {
		if err := rec.write(spansPath); err != nil {
			return nil, err
		}
	}
	rep.Metrics = tr.metrics
	rep.finish(tr.gate)
	return rep, nil
}

// searchAlgorithms names the direct search runs; index i is
// lscr.Algorithm(i).
var searchAlgorithms = []string{"ins", "uis", "uisstar", "conj"}

// readTotals accumulates, over the traced reads, what is not a span.
type readTotals struct {
	inSitu, replayed          []float64     // search time: the engine's own, and replayed
	query, search, constraint time.Duration // summed Engine.Query time and the layers' parts of it
	passed, nodes             [4]int        // exact counts per direct algorithm
	vsTotal, vsCount          int
}

// traceReads follows tracedReads pooled requests through Engine.Query
// and replays each through the layers' public functions on the engine's
// own graph and an identically built index. It returns that index and
// the traced/untraced latency ratio.
func (tr *tracer) traceReads(ctx context.Context) (*core.LocalIndex, float64, error) {
	inst, rec := tr.inst, tr.rec
	eng, g := inst.eng, inst.eng.KG().Graph()

	var idx *core.LocalIndex
	build := rec.timed("lscr.index_build", "", "", func() {
		idx = core.NewLocalIndex(g, core.IndexParams{})
	})
	tr.set("lscr.index_build_ms", ms(build), "ms", 1)
	tr.set("lscr.index_mb", float64(idx.SizeBytes())/(1<<20), "MB", 0)
	tr.set("lscr.landmarks", float64(len(idx.Landmarks())), "count", 0)

	// The untraced baseline runs on a second engine over the same graph,
	// so that each request is timed both ways in the same cache state
	// (a repeat on one engine would hit the constraint cache the first
	// call filled). Which of the two goes first alternates.
	baseline := lscr.NewEngine(lscr.FromGraph(inst.base), lscr.Options{})
	for _, i := range stretch(inst.pool, 2, tracedReads) { // warm-up
		for _, e := range []*lscr.Engine{baseline, eng} {
			resp, err := e.Query(ctx, inst.pool[i].req)
			tr.gate.checkRead(&inst.pool[i], resp.Reachable, resp.Witness != nil, err)
		}
	}
	var untraced, traced []float64
	var hits, misses int64
	tot := &readTotals{}
	for n, i := range stretch(inst.pool, 0, tracedReads) {
		q := &inst.pool[i]
		plain := func() {
			t0 := time.Now()
			resp, err := baseline.Query(ctx, q.req)
			untraced = append(untraced, ms(time.Since(t0)))
			tr.gate.checkRead(q, resp.Reachable, resp.Witness != nil, err)
		}
		if n%2 == 0 {
			plain()
		}
		id := rec.req.Add(1)
		before := eng.CacheStats()
		start := time.Now()
		resp, err := eng.Query(ctx, q.req)
		d := time.Since(start)
		after := eng.CacheStats()
		rec.add(span{Name: "engine.query", Req: id, Class: q.class}, start, d)
		rec.add(span{Name: "lscr.search", Parent: "engine.query", Req: id, Class: q.class}, start, resp.Elapsed)
		traced = append(traced, ms(d))
		tot.query += d
		tr.gate.checkRead(q, resp.Reachable, resp.Witness != nil, err)
		hits += after.Hits - before.Hits
		misses += after.Misses - before.Misses
		if n%2 == 1 {
			plain()
		}
		if err := tr.replay(g, idx, q, resp, after.Misses > before.Misses, tot); err != nil {
			return nil, 0, err
		}
	}

	tr.setMedian("engine.query_ms", rec.durations("engine.query", ""))
	tr.setMedian("engine.self_ms", rec.selfTimes("engine.query"))
	tr.setMedian("sparql.compile_ms", rec.durations("sparql.compile", ""))
	tr.setMedian("pattern.match_ms", rec.durations("pattern.match", ""))
	tr.set("pattern.vs_size", float64(tot.vsTotal)/float64(max(tot.vsCount, 1)), "count", tot.vsCount)
	tr.set("qcache.hit_ratio", float64(hits)/float64(max(hits+misses, 1)), "ratio", int(hits+misses))
	tr.set("qcache.entries", float64(eng.CacheStats().Entries), "count", 0)
	for a, name := range searchAlgorithms {
		tr.setMedian("lscr."+name+"_ms", rec.durations("lscr."+name, ""))
		tr.set("lscr.passed_vertices."+name, float64(tot.passed[a]), "count", 0)
		tr.set("lscr.tree_nodes."+name, float64(tot.nodes[a]), "count", 0)
		if name == "conj" {
			continue
		}
		for _, c := range paperConstraints() {
			tr.setMedian("lscr."+name+"_ms."+c.class, rec.durations("lscr."+name, c.class))
		}
	}
	tr.setMedian("lscr.witness_ms", rec.durations("lscr.witness", ""))
	// Replayed search time of each request's own algorithm (plus the
	// match, where Response.Elapsed covered one) against the search time
	// the engine itself reported: how far replay can be trusted.
	tr.set("trace.search_replay_ratio", median(tot.replayed)/median(tot.inSitu), "ratio", len(tot.replayed))
	// Shares of the summed Engine.Query time; medians alone hide that a
	// few heavy requests carry most of it.
	tr.set("engine.search_share", float64(tot.search)/float64(tot.query), "ratio", len(traced))
	tr.set("engine.constraint_share", float64(tot.constraint)/float64(tot.query), "ratio", len(traced))

	tr.traceBatches(ctx)
	return idx, median(traced) / median(untraced), nil
}

// replay sends one request, already answered by the engine with resp,
// through the layers one call at a time: sparql, pattern, every search
// algorithm that can answer it, and the witness search. missed says the
// engine's constraint cache missed, which decides which replayed spans
// count as parts of the engine's own call.
func (tr *tracer) replay(g *graph.Graph, idx *core.LocalIndex, q *query, resp lscr.Response, missed bool, tot *readTotals) error {
	rec := tr.rec
	texts := q.req.Constraints
	if q.req.Constraint != "" {
		texts = []string{q.req.Constraint}
	}
	s, t := g.Vertex(q.req.Source), g.Vertex(q.req.Target)
	var L labelset.Set
	for _, name := range q.req.Labels {
		l, _ := g.LabelByName(name)
		L = L.Add(l)
	}
	// On a cache miss the engine compiles the constraint, and for the
	// algorithms that take V(S,G) up front it enumerates it inside the
	// interval Response.Elapsed covers: the match is then a child of the
	// search span, not its sibling.
	compiledInSitu, matchedInSitu := "", ""
	if missed {
		compiledInSitu = "engine.query"
		if len(texts) == 1 && (q.req.Algorithm == lscr.INS || q.req.Algorithm == lscr.UISStar) {
			matchedInSitu = "lscr.search"
		}
	}
	var compileTime, matchTime time.Duration
	var cons []*pattern.Constraint
	var sets [][]graph.VertexID
	for _, text := range texts {
		var c *pattern.Constraint
		var vs []graph.VertexID
		var err error
		compileTime += rec.timed("sparql.compile", compiledInSitu, q.class, func() {
			var parsed *sparql.Query
			if parsed, err = sparql.Parse(text); err == nil {
				c, _, err = parsed.Compile(g)
			}
		})
		if err != nil {
			return fmt.Errorf("replay compile %q: %w", text, err)
		}
		matchTime += rec.timed("pattern.match", matchedInSitu, q.class, func() {
			var m *pattern.Matcher
			if m, err = pattern.NewMatcher(g, c); err == nil {
				vs = m.MatchAll()
			}
		})
		if err != nil {
			return fmt.Errorf("replay match %q: %w", text, err)
		}
		cons, sets = append(cons, c), append(sets, vs)
		tot.vsTotal += len(vs)
		tot.vsCount++
	}
	// Time by layer, as it fell inside the engine's own call.
	tot.inSitu = append(tot.inSitu, ms(resp.Elapsed))
	tot.search += resp.Elapsed
	if compiledInSitu != "" {
		tot.constraint += compileTime
	}
	if matchedInSitu != "" {
		tot.constraint += matchTime
		tot.search -= matchTime
	} else {
		matchTime = 0
	}

	var anchor graph.VertexID
	direct := func(algo lscr.Algorithm, run func() (bool, core.Stats, error)) {
		var ok bool
		var st core.Stats
		var err error
		d := rec.timed("lscr."+searchAlgorithms[algo], "", q.class, func() { ok, st, err = run() })
		tr.gate.check(err == nil && ok == q.expected, "direct %s on %s → %s: got %v err %v, oracle says %v",
			searchAlgorithms[algo], q.req.Source, q.req.Target, ok, err, q.expected)
		tot.passed[algo] += st.PassedVertices
		tot.nodes[algo] += st.SearchTreeNodes
		anchor = st.Satisfying
		if algo == resp.Algorithm {
			tot.replayed = append(tot.replayed, ms(d+matchTime))
		}
	}
	direct(lscr.Conjunctive, func() (bool, core.Stats, error) {
		return core.UISMulti(g, core.MultiQuery{Source: s, Target: t, Labels: L, Constraints: cons})
	})
	if len(cons) > 1 {
		return nil
	}
	cq := core.Query{Source: s, Target: t, Labels: L, Constraint: cons[0]}
	direct(lscr.UIS, func() (bool, core.Stats, error) { return core.UIS(g, cq) })
	direct(lscr.UISStar, func() (bool, core.Stats, error) { return core.UISStar(g, cq, sets[0]) })
	direct(lscr.INS, func() (bool, core.Stats, error) { return core.INS(g, idx, cq, sets[0]) })
	if q.expected {
		witnessInSitu := ""
		if q.req.WantWitness {
			witnessInSitu = "engine.query"
		}
		rec.timed("lscr.witness", witnessInSitu, q.class, func() {
			_, found := core.FindWitness(g, s, t, anchor, L)
			tr.gate.check(found, "no witness for true answer %s → %s", q.req.Source, q.req.Target)
		})
	}
	return nil
}

// traceBatches times QueryBatch over 16 requests that share a source,
// label set and constraint, and checks each slot against Query.
func (tr *tracer) traceBatches(ctx context.Context) {
	inst := tr.inst
	var lats []float64
	for b := 0; b < 8; b++ {
		reqs := make([]lscr.Request, 16)
		for i := range reqs {
			reqs[i] = inst.pool[b%len(inst.pool)].req
			reqs[i].Target = inst.pool[(b*16+i)%len(inst.pool)].req.Target
			reqs[i].WantWitness = false
		}
		var outcomes []lscr.QueryOutcome
		d := tr.rec.timed("engine.batch16", "", "", func() {
			outcomes = inst.eng.QueryBatch(ctx, reqs, lscr.BatchOptions{})
		})
		lats = append(lats, ms(d))
		for i, o := range outcomes {
			single, err := inst.eng.Query(ctx, reqs[i])
			tr.gate.check(o.Err == nil && err == nil && o.Response.Reachable == single.Reachable,
				"QueryBatch slot %d differs from Query: %v/%v vs %v/%v", i, o.Response.Reachable, o.Err, single.Reachable, err)
		}
	}
	tr.setMedian("engine.batch16_ms", lats)
}

// traceServing follows tracedReads pooled requests through client →
// gateway → server with a span at each boundary, and peels the engine's
// share by issuing the same request directly. It returns the
// traced/untraced latency ratio of the served path.
func (tr *tracer) traceServing(ctx context.Context) (float64, error) {
	inst, rec := tr.inst, tr.rec
	st := inst.stack
	if st == nil {
		var err error
		if st, err = startStack(inst.eng, 1, rec); err != nil {
			return 0, err
		}
		defer st.close()
	}
	wire := wireRequests(inst.pool)
	var untraced, traced []float64
	var engineTotal, clientTotal time.Duration
	send := func(i int, record bool) (time.Time, time.Duration) {
		rec.on.Store(record)
		start := time.Now()
		resp, err := st.client.Query(ctx, wire[i])
		d := time.Since(start)
		tr.gate.checkRead(&inst.pool[i], resp.Reachable, resp.Witness != nil, err)
		return start, d
	}
	for _, i := range stretch(inst.pool, 2, tracedReads) { // warm-up
		send(i, false)
	}
	// Each request goes out twice, once with the middleware recording
	// and once without; which goes first alternates.
	for n, i := range stretch(inst.pool, 0, tracedReads) {
		q := &inst.pool[i]
		plain := func() {
			_, d := send(i, false)
			untraced = append(untraced, ms(d))
		}
		if n%2 == 0 {
			plain()
		}
		id := rec.req.Add(1)
		start, d := send(i, true)
		traced = append(traced, ms(d))
		clientTotal += d
		rec.add(span{Name: "client.query", Req: id, Class: q.class}, start, d)
		engineTotal += rec.timed("server.engine", "server.serve", q.class, func() {
			_, _ = inst.eng.Query(ctx, q.req) // checked above and in traceReads; only its time matters here
		})
		if n%2 == 1 {
			plain()
		}
	}
	rec.on.Store(false)
	// The share of the summed client-side latency spent outside the
	// engine: HTTP, JSON, admission, the gateway hop and loopback.
	tr.set("serve.outside_engine_share", 1-float64(engineTotal)/float64(clientTotal), "ratio", len(traced))

	tr.setMedian("client.self_ms", rec.selfTimes("client.query"))
	tr.setMedian("gateway.self_ms", rec.selfTimes("gateway.serve"))
	tr.setMedian("server.self_ms", rec.selfTimes("server.serve"))
	var bytes, n int
	for _, s := range rec.spans {
		if s.Name == "server.serve" {
			bytes += s.Bytes
			n++
		}
	}
	tr.set("server.resp_bytes", float64(bytes)/float64(max(n, 1)), "B", n)
	return median(traced) / median(untraced), nil
}

const (
	// tracedBatches are applied with every layer replayed on a shadow;
	// recoveryBatches are then left in the WAL for Open to replay.
	tracedBatches   = 200
	recoveryBatches = 256
	// readsPerBatch pooled reads follow each traced batch, so that the
	// cold per-epoch constraint cache shows in qcache.hit_ratio_writes.
	readsPerBatch = 2
)

// traceWrites applies tracedBatches batches to a fresh durable engine
// over the workload's graph and replays each through graph.Delta, the
// index's ApplyMutations and a synced WAL append on a shadow graph,
// index and log; then it times compaction, segment write and open, and
// recovery of a WAL tail. idx must be exact for the workload's graph.
func (tr *tracer) traceWrites(ctx context.Context, idx *core.LocalIndex) (err error) {
	inst, rec := tr.inst, tr.rec
	n, nRecover := tracedBatches, recoveryBatches
	if len(inst.pool) < tracedReads { // self-test sizes
		n, nRecover = 30, 20
	}
	dirs := [2]string{}
	for i := range dirs {
		if dirs[i], err = os.MkdirTemp("", "lscr-bench-trace-"); err != nil {
			return err
		}
		defer os.RemoveAll(dirs[i])
	}
	opts := lscr.Options{Durability: lscr.DurabilitySync, CompactAfter: -1}
	var eng *lscr.Engine
	create := rec.timed("engine.create", "", "", func() {
		eng, err = lscr.Create(dirs[0], lscr.FromGraph(inst.base), opts)
	})
	if err != nil {
		return fmt.Errorf("create traced store: %w", err)
	}
	defer func() { _ = eng.Close() }() // the success path checks every Close below
	tr.set("engine.create_ms", ms(create), "ms", 1)

	shadow, shadowIdx := inst.base, idx
	wal, _, err := segment.OpenWAL(filepath.Join(dirs[1], "shadow.wal"))
	if err != nil {
		return err
	}
	defer wal.Close()
	mut := newMutator(inst.mut.rng, inst.base)

	var (
		hits, misses  int64
		entriesAdded  int
		overlayMax    int
		walOps        int
		reads         = stretch(inst.pool, 0, tracedReads)
		nextRead      int
		stagingFailed error
	)
	for b := 0; b < n; b++ {
		batch := mut.next()
		id := rec.req.Add(1)
		cs := eng.CacheStats() // the epoch this Apply retires
		hits, misses = hits+cs.Hits, misses+cs.Misses
		var res lscr.ApplyResult
		rec.timed("engine.apply", "", "", func() { res, err = eng.Apply(ctx, batch) })
		if !tr.gate.check(err == nil, "traced apply %d: %v", b, err) {
			return fmt.Errorf("traced apply %d: %w", b, err)
		}
		mut.ack(batch)
		overlayMax = max(overlayMax, res.OverlayOps)

		var d *graph.Delta
		var next *graph.Graph
		rec.timed("graph.delta_commit", "engine.apply", "", func() {
			d = graph.NewDelta(shadow)
			for _, mu := range batch {
				if mu.Op == lscr.OpAddEdge {
					stagingFailed = d.AddEdgeNames(mu.Subject, mu.Label, mu.Object)
				} else {
					s, _ := d.LookupVertex(mu.Subject)
					t, _ := d.LookupVertex(mu.Object)
					l, _ := d.LookupLabel(mu.Label)
					stagingFailed = d.DeleteEdge(s, l, t)
				}
				if stagingFailed != nil {
					return
				}
			}
			next, stagingFailed = d.Commit()
		})
		if stagingFailed != nil {
			return fmt.Errorf("shadow batch %d: %w", b, stagingFailed)
		}
		rec.timed("lscr.maintain", "engine.apply", "", func() {
			var mb core.MaintBatch
			shadowIdx, mb = shadowIdx.ApplyMutations(next, d.EdgeOps())
			entriesAdded += mb.EntriesAdded
		})
		shadow = next
		rec.timed("segment.wal_append", "engine.apply", "", func() {
			ops := make([]segment.Op, len(batch))
			for i, mu := range batch {
				ops[i] = segment.Op{Kind: segment.OpAddEdge, Subject: mu.Subject, Label: mu.Label, Object: mu.Object}
				if mu.Op == lscr.OpDeleteEdge {
					ops[i].Kind = segment.OpDeleteEdge
				}
			}
			err = wal.Append(segment.RecordBatch, uint64(id), segment.EncodeOps(ops), true)
			walOps += len(ops)
		})
		if err != nil {
			return fmt.Errorf("shadow wal append: %w", err)
		}

		for r := 0; r < readsPerBatch; r++ {
			q := &inst.pool[reads[nextRead%len(reads)]]
			nextRead++
			resp, qerr := eng.Query(ctx, q.req)
			tr.gate.checkRead(q, resp.Reachable, resp.Witness != nil, qerr)
		}
	}
	cs := eng.CacheStats()
	hits, misses = hits+cs.Hits, misses+cs.Misses
	tr.set("qcache.hit_ratio_writes", float64(hits)/float64(max(hits+misses, 1)), "ratio", int(hits+misses))
	tr.setMedian("engine.apply_ms", rec.durations("engine.apply", ""))
	tr.setMedian("engine.apply_self_ms", rec.selfTimes("engine.apply"))
	tr.setMedian("graph.delta_commit_ms", rec.durations("graph.delta_commit", ""))
	tr.setMedian("lscr.maintain_ms", rec.durations("lscr.maintain", ""))
	tr.setMedian("segment.wal_append_ms", rec.durations("segment.wal_append", ""))
	tr.set("segment.wal_bytes_per_op", float64(wal.Stats().Bytes)/float64(max(walOps, 1)), "B", walOps)
	tr.set("lscr.entries_added", float64(entriesAdded), "count", 0)
	tr.set("lscr.dirty_landmarks", float64(shadowIdx.DirtyLandmarks()), "count", 0)
	tr.set("graph.overlay_ops_max", float64(overlayMax), "count", 0)

	// Folding the overlay: the graph layer alone, then the engine's
	// Compact (fold + index rebuild + segment seal + WAL rotation).
	var folded *graph.Graph
	tr.set("graph.compact_ms", ms(rec.timed("graph.compact", "", "", func() { folded = shadow.Compact() })), "ms", 1)
	compact := rec.timed("engine.compact", "", "", func() { _, err = eng.Compact(ctx) })
	if err != nil {
		return fmt.Errorf("traced compact: %w", err)
	}
	tr.set("engine.compact_ms", ms(compact), "ms", 1)

	foldedIdx := core.NewLocalIndex(folded, core.IndexParams{})
	var segPath string
	write := rec.timed("segment.write", "", "", func() {
		segPath, err = segment.Write(dirs[1], 1, folded, foldedIdx, 0, 0)
	})
	if err != nil {
		return fmt.Errorf("segment write: %w", err)
	}
	tr.set("segment.write_ms", ms(write), "ms", 1)
	if fi, err := os.Stat(segPath); err == nil {
		tr.set("segment.bytes_per_edge", float64(fi.Size())/float64(folded.NumEdges()), "B", 0)
	}
	var seg *segment.Segment
	open := rec.timed("segment.open", "", "", func() { seg, err = segment.OpenDir(dirs[1]) })
	if err != nil {
		return fmt.Errorf("segment open: %w", err)
	}
	tr.set("segment.open_ms", ms(open), "ms", 1)
	if err := seg.Close(); err != nil {
		return err
	}

	// Open right after a seal, then Open with a WAL tail to replay.
	reopen := func(name string) error {
		if err := eng.Close(); err != nil {
			return err
		}
		d := rec.timed(name, "", "", func() {
			eng, err = lscr.Open(dirs[0], lscr.Options{Durability: lscr.DurabilitySync, CompactAfter: -1})
		})
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		tr.set(name+"_ms", ms(d), "ms", 1)
		got, want := eng.KG().NumEdges(), inst.base.NumEdges()+mut.liveEdges()
		tr.gate.check(got == want, "%s: %d edges, edge log says %d", name, got, want)
		return nil
	}
	if err := reopen("engine.open"); err != nil {
		return err
	}
	for b := 0; b < nRecover; b++ {
		batch := mut.next()
		_, err := eng.Apply(ctx, batch)
		if !tr.gate.check(err == nil, "apply before recovery %d: %v", b, err) {
			return fmt.Errorf("apply before recovery %d: %w", b, err)
		}
		mut.ack(batch)
	}
	if err := reopen("engine.recover"); err != nil {
		return err
	}
	return eng.Close()
}

// layerTable renders a traced report's metrics as sorted text rows.
func layerTable(rep *report) string {
	names := make([]string, 0, len(rep.Metrics))
	for name := range rep.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	fmt.Fprintf(&b, "%s seed %d  |V|=%d |E|=%d landmarks=%d pool=%d\n", rep.Workload, rep.Seed,
		rep.Sizes.Vertices, rep.Sizes.Edges, rep.Sizes.Landmarks, rep.Sizes.Pool)
	for _, name := range names {
		m := rep.Metrics[name]
		fmt.Fprintf(&b, "  %-28s %14.4f %-6s n=%d\n", name, m.Value, m.Unit, m.Samples)
	}
	return b.String()
}
