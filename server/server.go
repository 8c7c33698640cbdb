// Package server implements the lscrd HTTP service as an embeddable
// http.Handler: cmd/lscrd mounts it on a listener, tests mount it on
// httptest servers, and the benchmark harness drives it in-process
// through the typed client.
//
// Endpoints (all JSON):
//
//	GET  /healthz           — liveness, KG stats, cache counters, epoch, version
//	POST /v1/query          — one unified query (api.QueryRequest)
//	POST /v1/batch          — many queries over a worker pool (api.BatchRequest)
//	POST /v1/mutate         — one atomic mutation batch (api.MutateRequest)
//	GET  /v1/replicate      — WAL feed above ?from=<epoch>, long-polls ?wait_ms
//	GET  /v1/segment        — newest sealed segment image (follower bootstrap)
//	POST /select            — standalone SPARQL SELECT, rows by variable name
//
// Every query runs through Engine.Query with the request's context — a
// client that disconnects or times out cancels the search instead of
// leaving it running to completion.
//
// Queries need no locking here: the Engine serves reads from immutable
// epochs, so net/http can fan requests out freely, and /v1/mutate
// batches commit atomically through Engine.Apply — a batch whose body
// never fully arrives (client disconnect, size cap) is rejected before
// anything is staged, so the graph is never torn. ReadOnly disables
// /v1/mutate with 403 for deployments that want the pre-mutation
// contract. Client mistakes — unknown names, malformed or invalid
// constraints, impossible requests, deleting an absent edge, and
// requesting INS from an index-less server — answer 400; a query that
// exceeds its server-side deadline answers 504; only genuine server
// faults answer 500.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"runtime"
	"strconv"
	"time"

	"lscr"
	"lscr/api"
	"lscr/internal/buildinfo"
	"lscr/internal/failpoint"
)

// Body caps: MaxBatchBody bounds a batch request body (32 MiB ≈
// hundreds of thousands of queries — far above any sane batch, far
// below OOM); MaxQueryBody bounds the single-query endpoints, whose
// bodies are one query each — 1 MiB is far beyond any real SPARQL
// constraint yet keeps a hostile client from making the decoder buffer
// an arbitrarily large body.
const (
	MaxBatchBody = 32 << 20
	MaxQueryBody = 1 << 20
)

// statusClientClosedRequest is nginx's non-standard 499: the client
// went away before the answer was ready, so no status can actually be
// delivered; the code exists for the access log.
const statusClientClosedRequest = 499

// New wires every endpoint over eng. The kg
// parameter is retained for signature compatibility; the handler reads
// the engine's current view (eng.KG()) so /healthz and queries reflect
// mutations as they land.
func New(eng *lscr.Engine, kg *lscr.KG, opts ...Option) http.Handler {
	s := &server{eng: eng}
	for _, o := range opts {
		o(s)
	}
	mux := http.NewServeMux()
	// /healthz, /v1/replicate and /v1/segment stay outside the
	// admission gate: probes must be able to see a saturated or
	// poisoned server, and followers must keep replicating through
	// overload.
	mux.HandleFunc("GET /healthz", s.healthz)
	mux.HandleFunc("GET /v1/healthz", s.healthz)
	mux.HandleFunc("POST /v1/query", s.admitted(s.v1Query))
	mux.HandleFunc("POST /v1/batch", s.admitted(s.v1Batch))
	mux.HandleFunc("POST /v1/mutate", s.admitted(s.v1Mutate))
	mux.HandleFunc("GET /v1/replicate", s.v1Replicate)
	mux.HandleFunc("GET /v1/segment", s.v1Segment)
	mux.HandleFunc("POST /select", s.admitted(s.selectQuery))
	return mux
}

// Option customises the handler.
type Option func(*server)

// ReadOnly disables /v1/mutate: mutation batches answer 403 and the
// engine state can only change through the embedding process itself.
func ReadOnly() Option {
	return func(s *server) { s.readOnly = true }
}

type server struct {
	eng      *lscr.Engine
	readOnly bool
	gate     *gate
}

// FPServe is the failpoint site evaluated at the top of /v1/query;
// arming it with a delay policy turns every query into a slow query,
// which is how the overload tests saturate the admission gate without
// needing a graph large enough to be naturally slow.
const FPServe = "server-query"

// admitted wraps a handler with deadline-budget propagation and the
// admission gate. The api.BudgetHeader deadline is applied BEFORE the
// gate so time spent queued counts against the caller's budget — a
// gateway's 20ms-budget request that queues for 50ms must not then run
// for its full original budget.
func (s *server) admitted(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if ms := r.Header.Get(api.BudgetHeader); ms != "" {
			if v, err := strconv.ParseInt(ms, 10, 64); err == nil && v > 0 {
				ctx, cancel := context.WithTimeout(r.Context(), time.Duration(v)*time.Millisecond)
				defer cancel()
				r = r.WithContext(ctx)
			}
		}
		if s.gate != nil {
			switch s.gate.admit(r.Context()) {
			case admitShed:
				w.Header().Set("Retry-After", retryAfterSeconds(s.gate.retryAfter))
				writeError(w, http.StatusTooManyRequests, errOverloaded)
				return
			case admitExpired:
				err := r.Context().Err()
				writeError(w, statusFor(err), err)
				return
			}
			defer s.gate.release()
		}
		h(w, r)
	}
}

var errOverloaded = errors.New("server overloaded; retry later")

// retryAfterSeconds renders a Retry-After header value: integer
// seconds, rounded up so a sub-second hint never becomes "0".
func retryAfterSeconds(d time.Duration) string {
	secs := int64((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.FormatInt(secs, 10)
}

// engineError answers an engine failure, attaching a Retry-After hint
// when the failure is retryable-elsewhere (503: the engine is poisoned
// and a restart or failover is needed before writes succeed here).
func engineError(w http.ResponseWriter, err error) {
	code := statusFor(err)
	if code == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", retryAfterSeconds(time.Second))
	}
	writeError(w, code, err)
}

func (s *server) healthz(w http.ResponseWriter, r *http.Request) {
	// One consistent snapshot: KG stats, cache counters, epoch info and
	// maintenance stats must describe the same serving state even
	// mid-mutation.
	kg, cache, epoch, maint := s.eng.Health()
	h := api.Health{
		Status:      "ok",
		Version:     buildinfo.Version(),
		API:         api.Version,
		Vertices:    kg.NumVertices(),
		Edges:       kg.NumEdges(),
		Labels:      kg.NumLabels(),
		Cache:       cache,
		Epoch:       epoch,
		Maintenance: maint,
		Durability:  s.eng.Durability(),
		Admission:   s.gate.stats(),
	}
	// The index footprint is read apart from the snapshot above, so
	// under a concurrent Apply it may describe the next epoch's index.
	if st, ok := s.eng.Index(); ok {
		h.Index = &st
	}
	// A poisoned engine still serves reads from its last published
	// epoch, but writes are refused until restart: report degraded so
	// probes and the gateway can route writes elsewhere.
	if cause := s.eng.Poisoned(); cause != nil {
		h.Status = "degraded"
		h.Poisoned = cause.Error()
	}
	writeJSON(w, http.StatusOK, h)
}

func (s *server) v1Mutate(w http.ResponseWriter, r *http.Request) {
	if s.readOnly {
		writeError(w, http.StatusForbidden, fmt.Errorf("server is read-only"))
		return
	}
	// The whole body must decode before anything is staged, and
	// Engine.Apply validates the whole batch before publishing — a
	// disconnect mid-body or a bad op means nothing is applied.
	var wire api.MutateRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxBatchBody)).Decode(&wire); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if len(wire.Mutations) == 0 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("empty mutation batch"))
		return
	}
	res, err := s.eng.Apply(r.Context(), wire.Mutations)
	if err != nil {
		engineError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

func (s *server) v1Query(w http.ResponseWriter, r *http.Request) {
	var wire api.QueryRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxQueryBody)).Decode(&wire); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	req, err := wire.ToRequest()
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if fp := failpoint.Eval(FPServe); fp != nil {
		engineError(w, fp)
		return
	}
	resp, err := s.eng.Query(r.Context(), req)
	if err != nil {
		engineError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, api.FromResponse(resp))
}

func (s *server) v1Batch(w http.ResponseWriter, r *http.Request) {
	var wire api.BatchRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxBatchBody)).Decode(&wire); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if len(wire.Queries) == 0 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("empty batch"))
		return
	}
	// Bound what one request can cost: the body is capped before
	// decoding, and the client's fan-out wish is clamped to the cores
	// actually available (QueryBatch itself only clamps to the batch
	// length).
	if wire.Concurrency < 0 || wire.Concurrency > runtime.GOMAXPROCS(0) {
		wire.Concurrency = runtime.GOMAXPROCS(0)
	}
	items := make([]api.BatchItem, len(wire.Queries))
	reqs := make([]lscr.Request, 0, len(wire.Queries))
	slots := make([]int, 0, len(wire.Queries)) // reqs[j] answers items[slots[j]]
	for i, q := range wire.Queries {
		if q.Trace {
			// Rendered search trees are O(search-tree) strings; allowing
			// them per batch item would let one 32 MiB request body pin
			// an unbounded amount of DOT text in memory. Traces stay a
			// single-query (/v1/query) feature.
			items[i].Error = "trace is not supported in batches; use /v1/query"
			continue
		}
		req, err := q.ToRequest()
		if err != nil {
			items[i].Error = err.Error()
			continue
		}
		reqs = append(reqs, req)
		slots = append(slots, i)
	}
	outcomes := s.eng.QueryBatch(r.Context(), reqs, lscr.BatchOptions{Concurrency: wire.Concurrency})
	for j, o := range outcomes {
		it := &items[slots[j]]
		if o.Err != nil {
			it.Error = o.Err.Error()
			continue
		}
		it.QueryResponse = api.FromResponse(o.Response)
	}
	writeJSON(w, http.StatusOK, api.BatchResponse{Results: items, Count: len(items)})
}

// MaxReplicateWait caps the long-poll window of GET /v1/replicate; a
// follower whose cursor stays current simply re-polls.
const MaxReplicateWait = 30 * time.Second

// v1Replicate streams the replication feed: every WAL record above the
// from cursor, long-polling up to wait_ms for the next epoch when the
// cursor is current. A cursor the WAL no longer covers (a compaction
// rotated it away) answers 410 Gone — the follower re-bootstraps from
// /v1/segment; an in-memory engine answers 501.
func (s *server) v1Replicate(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	from, err := strconv.ParseUint(q.Get("from"), 10, 64)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad from cursor: %v", err))
		return
	}
	var wait time.Duration
	if ms := q.Get("wait_ms"); ms != "" {
		v, err := strconv.ParseInt(ms, 10, 64)
		if err != nil || v < 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad wait_ms %q", ms))
			return
		}
		wait = min(time.Duration(v)*time.Millisecond, MaxReplicateWait)
	}
	deadline := time.Now().Add(wait)
	for {
		// Arm the publish wake-up before reading: a batch that commits
		// between the read and the select still closes this channel, so
		// the poll can never sleep through it.
		published := s.eng.EpochPublished()
		batches, err := s.eng.ReplicationRead(from, 0)
		switch {
		case errors.Is(err, lscr.ErrReplicaLag):
			writeError(w, http.StatusGone, err)
			return
		case errors.Is(err, lscr.ErrNoReplicationLog):
			writeError(w, http.StatusNotImplemented, err)
			return
		case err != nil:
			writeError(w, http.StatusInternalServerError, err)
			return
		}
		remain := time.Until(deadline)
		if len(batches) > 0 || remain <= 0 {
			dur := s.eng.Durability()
			writeJSON(w, http.StatusOK, api.ReplicateResponse{
				From:         from,
				Batches:      batches,
				Epoch:        s.eng.Epoch().Epoch,
				DurableEpoch: dur.DurableEpoch,
			})
			return
		}
		timer := time.NewTimer(remain)
		select {
		case <-published:
			timer.Stop()
		case <-timer.C:
		case <-r.Context().Done():
			timer.Stop()
			return
		}
	}
}

// v1Segment streams the newest sealed segment image for follower
// bootstrap, with its base epoch in the SegmentEpochHeader. The open
// file descriptor keeps the bytes readable even if a compaction
// replaces the segment mid-transfer.
func (s *server) v1Segment(w http.ResponseWriter, r *http.Request) {
	f, base, err := s.eng.SegmentFile()
	if errors.Is(err, lscr.ErrNoReplicationLog) {
		writeError(w, http.StatusNotImplemented, err)
		return
	}
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set(api.SegmentEpochHeader, strconv.FormatUint(base, 10))
	w.Header().Set("Content-Length", strconv.FormatInt(fi.Size(), 10))
	w.WriteHeader(http.StatusOK)
	if _, err := io.Copy(w, f); err != nil {
		// Headers are gone; all we can do is log the broken transfer.
		log.Printf("lscrd: segment transfer: %v", err)
	}
}

func (s *server) selectQuery(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Query string `json:"query"`
	}
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxQueryBody)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	rows, err := s.eng.SelectAll(req.Query)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"rows": rows, "count": len(rows)})
}

// statusFor maps engine errors to HTTP statuses via the exported
// sentinels: everything the client controls — names, constraint text,
// impossible request shapes, and the choice of an algorithm this
// server cannot run (ErrNoIndex) — is a 400; a server-side deadline
// expiry is a 504; a client that went away is logged as 499; anything
// else is a genuine server-side 500.
func statusFor(err error) int {
	switch {
	case errors.Is(err, lscr.ErrUnknownVertex),
		errors.Is(err, lscr.ErrUnknownLabel),
		errors.Is(err, lscr.ErrConstraintSyntax),
		errors.Is(err, lscr.ErrInvalidConstraint),
		errors.Is(err, lscr.ErrInvalidRequest),
		errors.Is(err, lscr.ErrUnknownAlgorithm),
		errors.Is(err, lscr.ErrNoConstraints),
		errors.Is(err, lscr.ErrTooManyConstraints),
		errors.Is(err, lscr.ErrEdgeNotFound),
		errors.Is(err, lscr.ErrInvalidMutation),
		errors.Is(err, lscr.ErrNoIndex):
		return http.StatusBadRequest
	case errors.Is(err, lscr.ErrReplicaWrite):
		// A replica engine takes writes only through its feed; direct
		// mutation attempts are refused like a read-only deployment's.
		return http.StatusForbidden
	case errors.Is(err, lscr.ErrPoisoned):
		// The engine took a write failure and fail-stopped its write
		// path; reads still work but this request cannot succeed until
		// the process restarts. 503 + Retry-After tells clients and the
		// gateway to go elsewhere.
		return http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return statusClientClosedRequest
	}
	return http.StatusInternalServerError
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		log.Printf("lscrd: encode response: %v", err)
	}
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, api.Error{Error: err.Error()})
}
