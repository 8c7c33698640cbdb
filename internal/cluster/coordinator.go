// Package cluster is the replicated serving tier: one writer lscrd,
// any number of follower replicas fed by the writer's WAL, and a
// coordinator (cmd/lscrgw) that presents the whole group as one
// logical engine behind the existing /v1 wire contract.
//
// Reads are routed health-aware: every backend carries a
// consecutive-failure circuit breaker fed by background /healthz
// probes and by in-band forwarding results, plus a staleness check
// (its last observed epoch vs the writer's); eligible replicas take
// queries round-robin, and a hedge request fires against a second
// replica when the first is slow. Batches fan out across the eligible
// replicas and merge preserving per-request order and error mapping.
// Writes fan in through the single writer; followers replay its WAL
// feed through the engine's normal commit path, so at every replicated
// epoch a follower's answers are bit-identical to the writer's (the
// e2e tier proves this against a single-engine oracle).
//
// Consistency: per-epoch identity with bounded staleness on reads — a
// read served by a replica at epoch E sees exactly the writer's epoch-E
// state, and the coordinator only routes to replicas within
// Config.StalenessBound epochs of the writer's head (the writer itself
// is the always-fresh fallback).
package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"lscr"
	"lscr/api"
	"lscr/internal/buildinfo"
	"lscr/internal/failpoint"
	"lscr/server"
)

// Routing defaults.
const (
	DefaultProbeInterval = 500 * time.Millisecond
	DefaultHedgeAfter    = 20 * time.Millisecond
	DefaultFailThreshold = 3
	DefaultCooldown      = time.Second
	// maxRelayBody caps what the coordinator buffers of one backend
	// response before relaying it; the streamed replication endpoints
	// are not capped.
	maxRelayBody = 64 << 20
)

// Config wires a Coordinator.
type Config struct {
	// Writer is the base URL of the single writing lscrd; mutations fan
	// in here, and reads fall back to it when no replica is eligible.
	Writer string
	// Replicas are the base URLs of the read replicas (followers; the
	// writer's URL may be listed too to include it in the rotation).
	Replicas []string
	// ProbeInterval is the /healthz probe period (DefaultProbeInterval
	// when zero); probes refresh per-backend epochs and feed breakers.
	ProbeInterval time.Duration
	// HedgeAfter is how long a /v1/query waits on its primary replica
	// before hedging to a second one (DefaultHedgeAfter when zero,
	// negative disables hedging).
	HedgeAfter time.Duration
	// StalenessBound is the maximum number of epochs a replica may lag
	// the writer's head and still take reads; 0 means unbounded.
	StalenessBound uint64
	// FailThreshold consecutive transient failures open a backend's
	// breaker for Cooldown (defaults DefaultFailThreshold and
	// DefaultCooldown).
	FailThreshold int
	Cooldown      time.Duration
	// RequestBudget bounds each read end-to-end (queue time on the
	// backend included: the gateway stamps the remaining budget into
	// api.BudgetHeader on every forwarded attempt, and lscrd turns it
	// into the request's context deadline). 0 means unbounded.
	RequestBudget time.Duration
	// HTTPClient carries all backend traffic; http.DefaultClient when
	// nil.
	HTTPClient *http.Client
	// Logf receives routing events (failovers, breaker trips);
	// log.Printf when nil.
	Logf func(format string, args ...any)
}

// Coordinator is the gateway handler: one logical /v1 engine over many
// lscrd processes. Build with NewCoordinator, optionally Start the
// probe loop, mount as an http.Handler, Close to stop probing.
type Coordinator struct {
	cfg      Config
	hc       *http.Client
	writer   *backend
	replicas []*backend
	mux      *http.ServeMux

	// writerEpoch is the cluster head: the writer's serving epoch from
	// its last good probe or mutate reply. rr drives round-robin.
	writerEpoch atomic.Uint64
	rr          atomic.Uint64

	// sheds counts reads the cluster shed (a backend answered 429 and
	// no alternative could take the request); inflight counts reads
	// currently dispatched. Both are exported on /healthz so overload
	// is observable at the gateway.
	sheds    atomic.Int64
	inflight atomic.Int64

	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// NewCoordinator assembles the gateway. It does not probe: call Start
// for the background loop (or ProbeNow for one synchronous round).
func NewCoordinator(cfg Config) *Coordinator {
	co := &Coordinator{cfg: cfg, hc: cfg.HTTPClient}
	if co.hc == nil {
		co.hc = http.DefaultClient
	}
	co.writer = newBackend(cfg.Writer, co.hc)
	for _, u := range cfg.Replicas {
		if u == cfg.Writer {
			// One breaker per process: a writer listed in the rotation
			// shares its backend state with the write path.
			co.replicas = append(co.replicas, co.writer)
			continue
		}
		co.replicas = append(co.replicas, newBackend(u, co.hc))
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", co.healthz)
	mux.HandleFunc("GET /v1/healthz", co.healthz)
	mux.HandleFunc("POST /v1/query", co.readHedged(server.MaxQueryBody))
	mux.HandleFunc("POST /v1/batch", co.v1Batch)
	mux.HandleFunc("POST /v1/mutate", co.v1Mutate)
	// The replication endpoints only make sense against the writer's
	// log; proxying them lets followers bootstrap through the gateway.
	mux.HandleFunc("GET /v1/replicate", co.toWriter)
	mux.HandleFunc("GET /v1/segment", co.toWriter)
	// Standalone SPARQL reads route like /v1/query.
	mux.HandleFunc("POST /select", co.readHedged(server.MaxQueryBody))
	co.mux = mux
	return co
}

func (co *Coordinator) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	co.mux.ServeHTTP(w, r)
}

// Start launches the background probe loop; Close stops it.
func (co *Coordinator) Start() {
	ctx, cancel := context.WithCancel(context.Background())
	co.cancel = cancel
	co.wg.Add(1)
	go func() {
		defer co.wg.Done()
		tick := time.NewTicker(co.probeInterval())
		defer tick.Stop()
		co.ProbeNow(ctx)
		for {
			select {
			case <-tick.C:
				co.ProbeNow(ctx)
			case <-ctx.Done():
				return
			}
		}
	}()
}

// Close stops the probe loop (idempotent; a never-Started coordinator
// closes trivially).
func (co *Coordinator) Close() {
	if co.cancel != nil {
		co.cancel()
		co.cancel = nil
	}
	co.wg.Wait()
}

// ProbeNow probes every backend once, concurrently, updating epochs
// and breakers. The background loop calls it on each tick; tests call
// it directly for deterministic routing state.
func (co *Coordinator) ProbeNow(ctx context.Context) {
	var wg sync.WaitGroup
	probeOne := func(b *backend, isWriter bool) {
		defer wg.Done()
		ep, ok := b.probe(ctx, co.probeInterval(), co.failThreshold(), co.cooldown())
		if ok && isWriter {
			co.writerEpoch.Store(ep)
		}
	}
	wg.Add(1)
	go probeOne(co.writer, true)
	for _, b := range co.replicas {
		if b == co.writer {
			continue
		}
		wg.Add(1)
		go probeOne(b, false)
	}
	wg.Wait()
}

func (co *Coordinator) probeInterval() time.Duration {
	if co.cfg.ProbeInterval > 0 {
		return co.cfg.ProbeInterval
	}
	return DefaultProbeInterval
}

func (co *Coordinator) hedgeAfter() time.Duration {
	switch {
	case co.cfg.HedgeAfter < 0:
		return 0
	case co.cfg.HedgeAfter == 0:
		return DefaultHedgeAfter
	}
	return co.cfg.HedgeAfter
}

func (co *Coordinator) failThreshold() int {
	if co.cfg.FailThreshold > 0 {
		return co.cfg.FailThreshold
	}
	return DefaultFailThreshold
}

func (co *Coordinator) cooldown() time.Duration {
	if co.cfg.Cooldown > 0 {
		return co.cfg.Cooldown
	}
	return DefaultCooldown
}

func (co *Coordinator) logf(format string, args ...any) {
	if co.cfg.Logf != nil {
		co.cfg.Logf(format, args...)
		return
	}
	log.Printf("lscrgw: "+format, args...)
}

// fresh reports whether b is within the staleness bound of the
// cluster head.
func (co *Coordinator) fresh(b *backend) bool {
	if co.cfg.StalenessBound == 0 || b == co.writer {
		return true
	}
	head := co.writerEpoch.Load()
	ep := b.epoch.Load()
	return ep >= head || head-ep <= co.cfg.StalenessBound
}

// eligible reports whether b can take a read now: breaker closed, not
// shedding, within the staleness bound.
func (co *Coordinator) eligible(b *backend, now time.Time) bool {
	return b.available(now) && !b.shedding(now) && co.fresh(b)
}

// pickRead selects the next eligible read backend round-robin among the
// replicas, excluding those already tried; when no replica qualifies it
// falls back to the writer, which is never stale. nil means nothing can
// serve the read.
func (co *Coordinator) pickRead(tried map[*backend]bool) *backend {
	now := time.Now()
	if n := len(co.replicas); n > 0 {
		start := co.rr.Add(1)
		for i := 0; i < n; i++ {
			b := co.replicas[(start+uint64(i))%uint64(n)]
			if !tried[b] && co.eligible(b, now) {
				return b
			}
		}
	}
	if w := co.writer; !tried[w] && co.eligible(w, now) {
		return w
	}
	return nil
}

// eligibleReads snapshots every backend pickRead could currently
// return, replicas first — the fan-out set for batch partitioning.
func (co *Coordinator) eligibleReads() []*backend {
	now := time.Now()
	var out []*backend
	for _, b := range co.replicas {
		if co.eligible(b, now) {
			out = append(out, b)
		}
	}
	if len(out) == 0 && co.eligible(co.writer, now) {
		out = append(out, co.writer)
	}
	return out
}

// attemptResult is one forwarded exchange with a backend.
type attemptResult struct {
	b       *backend
	status  int
	header  http.Header
	body    []byte
	err     error
	elapsed time.Duration
}

// transient reports a failure worth redispatching: the backend did not
// produce a definitive answer (transport error, or it is itself a
// gateway-ish 502/503).
func (res *attemptResult) transient() bool {
	return res.err != nil ||
		res.status == http.StatusBadGateway ||
		res.status == http.StatusServiceUnavailable
}

func (res *attemptResult) failureErr() error {
	if res.err != nil {
		return res.err
	}
	var e api.Error
	if json.Unmarshal(res.body, &e) == nil && e.Error != "" {
		return fmt.Errorf("backend answered %d: %s", res.status, e.Error)
	}
	return fmt.Errorf("backend answered %d", res.status)
}

// FPGatewayDispatch is the failpoint site evaluated per forwarded
// attempt; an armed error policy makes the dispatch fail as if the
// backend were unreachable, exercising redispatch and breaker paths.
const FPGatewayDispatch = "gateway-dispatch"

// send forwards one request to b and returns the backend's reply
// unread. The remaining context budget travels in api.BudgetHeader, so
// a backend's admission queue spends the caller's time, not its own
// unbounded patience.
func (co *Coordinator) send(ctx context.Context, b *backend, method, path, rawQuery string, body []byte, contentType string) (*http.Response, error) {
	if fp := failpoint.Eval(FPGatewayDispatch); fp != nil {
		return nil, fp
	}
	url := b.url + path
	if rawQuery != "" {
		url += "?" + rawQuery
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	hreq, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return nil, err
	}
	if contentType != "" {
		hreq.Header.Set("Content-Type", contentType)
	}
	if dl, ok := ctx.Deadline(); ok {
		if ms := time.Until(dl).Milliseconds(); ms > 0 {
			hreq.Header.Set(api.BudgetHeader, strconv.FormatInt(ms, 10))
		}
	}
	return co.hc.Do(hreq)
}

// attempt forwards one buffered request to b and buffers the reply, up
// to maxRelayBody.
func (co *Coordinator) attempt(ctx context.Context, b *backend, method, path, rawQuery string, body []byte, contentType string) attemptResult {
	start := time.Now()
	resp, err := co.send(ctx, b, method, path, rawQuery, body, contentType)
	if err != nil {
		return attemptResult{b: b, err: err, elapsed: time.Since(start)}
	}
	defer resp.Body.Close()
	respBody, err := io.ReadAll(io.LimitReader(resp.Body, maxRelayBody))
	if err != nil {
		return attemptResult{b: b, err: err, elapsed: time.Since(start)}
	}
	return attemptResult{
		b:       b,
		status:  resp.StatusCode,
		header:  resp.Header,
		body:    respBody,
		elapsed: time.Since(start),
	}
}

// relayHeader writes a backend reply's status through to the client,
// with its Content-Type, segment epoch and the Retry-After hint of a
// shedding or poisoned backend.
func relayHeader(w http.ResponseWriter, status int, h http.Header) {
	for _, k := range []string{"Content-Type", api.SegmentEpochHeader, "Retry-After"} {
		if v := h.Get(k); v != "" {
			w.Header().Set(k, v)
		}
	}
	w.WriteHeader(status)
}

// relay writes a buffered backend reply through to the client.
func relay(w http.ResponseWriter, res attemptResult) {
	relayHeader(w, res.status, res.header)
	w.Write(res.body)
}

// errNoBackend is dispatch's error when next offers no backend at all.
var errNoBackend = errors.New("no eligible backend")

// withBudget bounds a read by Config.RequestBudget.
func (co *Coordinator) withBudget(ctx context.Context) (context.Context, context.CancelFunc) {
	if d := co.cfg.RequestBudget; d > 0 {
		return context.WithTimeout(ctx, d)
	}
	return ctx, func() {}
}

// dispatch is the one attempt loop behind every read: /v1/query and
// /select, and each /v1/batch group. It launches on next(tried), hedges
// once to next(tried) after hedgeAfter (0 = never), and when an attempt
// fails moves on to next(tried). A 429 puts the backend in a shed
// cooldown with no breaker hit (it is overloaded, not broken); a
// transient failure feeds its breaker. The first definitive answer wins
// and is accounted a success. When nothing is left to try, the last 429
// is returned if any backend shed (counted in sheds, so its Retry-After
// reaches the client's retry policy instead of a 502), errNoBackend if
// next offered nothing, and "no backend answered" otherwise. Once ctx
// ends, no result is accounted — the caller's budget or disconnect is
// not the backend's fault — and the error is ctx.Err().
func (co *Coordinator) dispatch(ctx context.Context, next func(tried map[*backend]bool) *backend, hedgeAfter time.Duration, method, path, rawQuery string, body []byte, contentType string) (attemptResult, error) {
	actx, cancel := context.WithCancel(ctx)
	defer cancel()
	// Buffered wide enough for every backend plus the writer, so a
	// losing attempt's send never blocks after dispatch returns.
	results := make(chan attemptResult, len(co.replicas)+2)
	tried := make(map[*backend]bool)
	inflight := 0
	launch := func() bool {
		b := next(tried)
		if b == nil {
			return false
		}
		tried[b] = true
		inflight++
		go func() {
			results <- co.attempt(actx, b, method, path, rawQuery, body, contentType)
		}()
		return true
	}
	if !launch() {
		return attemptResult{}, errNoBackend
	}
	var hedge <-chan time.Time
	if hedgeAfter > 0 {
		t := time.NewTimer(hedgeAfter)
		defer t.Stop()
		hedge = t.C
	}
	var (
		lastErr  error
		lastShed *attemptResult
	)
	for {
		select {
		case res := <-results:
			inflight--
			if ctx.Err() != nil {
				return attemptResult{}, ctx.Err()
			}
			switch {
			case res.status == http.StatusTooManyRequests:
				res.b.shed(co.cooldown())
				co.logf("%s via %s shed (429)", path, res.b.url)
				lastShed = &res
			case res.transient():
				lastErr = res.failureErr()
				res.b.failure(lastErr, co.failThreshold(), co.cooldown())
				co.logf("%s via %s failed: %v", path, res.b.url, lastErr)
			default:
				res.b.success(res.elapsed)
				return res, nil
			}
			if launch() || inflight > 0 {
				continue // a redispatch or a hedge may still answer
			}
			if lastShed != nil {
				co.sheds.Add(1)
				return *lastShed, nil
			}
			return attemptResult{}, fmt.Errorf("no backend answered: %v", lastErr)
		case <-hedge:
			hedge = nil
			launch()
		case <-ctx.Done():
			return attemptResult{}, ctx.Err()
		}
	}
}

// readHedged builds the handler for single-request reads: the body is
// buffered up front so every attempt re-sends identical bytes, and
// dispatch routes it with pickRead, hedged after hedgeAfter. The reply
// is the winning backend's answer relayed, or the relayed 429 of a
// shedding fleet, 503 when no backend is eligible, 502 when none
// answered and 504 when Config.RequestBudget expired. A client that
// went away gets nothing.
func (co *Coordinator) readHedged(maxBody int64) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBody))
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		co.inflight.Add(1)
		defer co.inflight.Add(-1)
		ctx, cancel := co.withBudget(r.Context())
		defer cancel()
		res, err := co.dispatch(ctx, co.pickRead, co.hedgeAfter(), r.Method, r.URL.Path, r.URL.RawQuery, body, r.Header.Get("Content-Type"))
		switch {
		case err == nil:
			relay(w, res)
		case r.Context().Err() != nil:
			// The client went away: nobody is left to answer.
		case errors.Is(err, context.DeadlineExceeded):
			writeError(w, http.StatusGatewayTimeout, fmt.Errorf("request budget %v expired", co.cfg.RequestBudget))
		case errors.Is(err, errNoBackend):
			writeError(w, http.StatusServiceUnavailable, err)
		default:
			writeError(w, http.StatusBadGateway, err)
		}
	}
}

// v1Batch fans a batch out across the eligible replicas and merges the
// group replies back into request order. Each group goes through
// dispatch under the request budget, unhedged, to its own replica and
// then at most once to the next one in the fan-out set. A group no
// backend answers maps its error onto its own slots as per-item errors;
// the other groups' answers still stand — a replica going down
// mid-batch degrades, never corrupts, the merge.
func (co *Coordinator) v1Batch(w http.ResponseWriter, r *http.Request) {
	var wire api.BatchRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, server.MaxBatchBody)).Decode(&wire); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if len(wire.Queries) == 0 {
		writeError(w, http.StatusBadRequest, errors.New("empty batch"))
		return
	}
	backends := co.eligibleReads()
	if len(backends) == 0 {
		writeError(w, http.StatusServiceUnavailable, errNoBackend)
		return
	}
	ctx, cancel := co.withBudget(r.Context())
	defer cancel()
	// Partition round-robin: queries i, i+n, i+2n… go to backend i. The
	// slot map carries each sub-batch answer back to its request index.
	groups := make([][]api.QueryRequest, len(backends))
	slots := make([][]int, len(backends))
	for i, q := range wire.Queries {
		g := i % len(backends)
		groups[g] = append(groups[g], q)
		slots[g] = append(slots[g], i)
	}
	items := make([]api.BatchItem, len(wire.Queries))
	var wg sync.WaitGroup
	for g := range groups {
		if len(groups[g]) == 0 {
			continue
		}
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			targets := [2]*backend{backends[g], backends[(g+1)%len(backends)]}
			next := func(tried map[*backend]bool) *backend {
				for _, b := range targets {
					if !tried[b] {
						return b
					}
				}
				return nil
			}
			var (
				res  attemptResult
				resp api.BatchResponse
			)
			body, err := json.Marshal(api.BatchRequest{Queries: groups[g], Concurrency: wire.Concurrency})
			if err == nil {
				res, err = co.dispatch(ctx, next, 0, http.MethodPost, "/"+api.Version+"/batch", "", body, "application/json")
			}
			if err == nil && res.status != http.StatusOK {
				// A definitive refusal, or the 429 of a group every
				// target shed, maps onto every slot of the group.
				err = res.failureErr()
			}
			if err == nil {
				err = json.Unmarshal(res.body, &resp)
			}
			for j, slot := range slots[g] {
				if err != nil {
					items[slot] = api.BatchItem{Error: fmt.Sprintf("gateway: %v", err)}
				} else if j < len(resp.Results) {
					items[slot] = resp.Results[j]
				}
			}
		}(g)
	}
	wg.Wait()
	writeJSON(w, http.StatusOK, api.BatchResponse{Results: items, Count: len(items)})
}

// v1Mutate fans the mutation in through the single writer, exactly
// once — the gateway never retries a write (the reply may have been
// lost after the commit), matching the typed client's contract.
func (co *Coordinator) v1Mutate(w http.ResponseWriter, r *http.Request) {
	if co.writer.poisoned.Load() {
		// The writer fail-stopped its write path (probe saw the
		// degraded /healthz): fail static here instead of burning the
		// writer's 503 path per request. Reads keep routing normally.
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable,
			errors.New("writer is poisoned (fail-stop after write error); restart it to resume writes"))
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, server.MaxBatchBody))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	res := co.attempt(r.Context(), co.writer, http.MethodPost, "/v1/mutate", "", body, r.Header.Get("Content-Type"))
	if res.err != nil {
		co.writer.failure(res.err, co.failThreshold(), co.cooldown())
		writeError(w, http.StatusBadGateway, fmt.Errorf("writer unavailable: %v", res.err))
		return
	}
	if res.status/100 == 2 {
		co.writer.success(res.elapsed)
		// The reply carries the committed epoch: advance the cluster
		// head immediately so staleness checks see the write without
		// waiting for the next probe.
		var mr lscr.ApplyResult
		if json.Unmarshal(res.body, &mr) == nil && mr.Epoch > co.writerEpoch.Load() {
			co.writerEpoch.Store(mr.Epoch)
		}
	}
	relay(w, res)
}

// toWriter streams a request's reply from the writer verbatim
// (replication endpoints). Nothing is buffered, so no cap applies: a
// segment image grows with the graph, far past maxRelayBody.
func (co *Coordinator) toWriter(w http.ResponseWriter, r *http.Request) {
	resp, err := co.send(r.Context(), co.writer, r.Method, r.URL.Path, r.URL.RawQuery, nil, "")
	if err != nil {
		writeError(w, http.StatusBadGateway, fmt.Errorf("writer unavailable: %v", err))
		return
	}
	defer resp.Body.Close()
	if n := resp.Header.Get("Content-Length"); n != "" {
		w.Header().Set("Content-Length", n)
	}
	relayHeader(w, resp.StatusCode, resp.Header)
	if _, err := io.Copy(w, resp.Body); err != nil {
		// Headers are gone; the short body is the client's signal.
		co.logf("relay %s from writer: %v", r.URL.Path, err)
	}
}

// healthz reports the gateway's routing view of the cluster.
func (co *Coordinator) healthz(w http.ResponseWriter, r *http.Request) {
	head := co.writerEpoch.Load()
	out := api.ClusterHealth{
		Status:         "ok",
		Version:        buildinfo.Version(),
		API:            api.Version,
		Role:           "gateway",
		Epoch:          head,
		Writer:         co.backendHealth(co.writer, head),
		Sheds:          co.sheds.Load(),
		Inflight:       co.inflight.Load(),
		WriterPoisoned: co.writer.poisoned.Load(),
	}
	for _, b := range co.replicas {
		out.Replicas = append(out.Replicas, co.backendHealth(b, head))
	}
	if len(co.eligibleReads()) == 0 || out.WriterPoisoned {
		out.Status = "degraded"
	}
	writeJSON(w, http.StatusOK, out)
}

func (co *Coordinator) backendHealth(b *backend, head uint64) api.ReplicaHealth {
	now := time.Now()
	rh := api.ReplicaHealth{
		URL:       b.url,
		Breaker:   "closed",
		Epoch:     b.epoch.Load(),
		LatencyUS: b.latencyUS.Load(),
		Shedding:  b.shedding(now),
		Poisoned:  b.poisoned.Load(),
	}
	if !b.available(now) {
		rh.Breaker = "open"
	}
	if head > rh.Epoch {
		rh.Lag = head - rh.Epoch
	}
	if msg := b.lastErr.Load(); msg != nil && *msg != "" {
		rh.Error = *msg
	}
	rh.Healthy = rh.Breaker == "closed" && rh.Error == "" && co.fresh(b)
	return rh
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		log.Printf("lscrgw: encode response: %v", err)
	}
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, api.Error{Error: err.Error()})
}
