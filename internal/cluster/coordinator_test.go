package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"lscr"
	"lscr/api"
)

// fakeBackend is a scripted lscrd stand-in: it answers /v1/query and
// /v1/batch by echoing each query's Source into the response Algorithm
// field (so tests can see who answered what, and that merge order is
// preserved), after an optional per-request delay. It counts hits per
// path.
type fakeBackend struct {
	name    string
	delay   time.Duration
	queries atomic.Int64
	batches atomic.Int64
	srv     *httptest.Server
}

func newFakeBackend(t *testing.T, name string, delay time.Duration) *fakeBackend {
	t.Helper()
	f := &fakeBackend{name: name, delay: delay}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/query", func(w http.ResponseWriter, r *http.Request) {
		f.queries.Add(1)
		var q api.QueryRequest
		json.NewDecoder(r.Body).Decode(&q)
		f.sleep(r)
		writeJSON(w, http.StatusOK, api.QueryResponse{Reachable: true, Algorithm: f.name + ":" + q.Source})
	})
	mux.HandleFunc("POST /v1/batch", func(w http.ResponseWriter, r *http.Request) {
		f.batches.Add(1)
		var b api.BatchRequest
		json.NewDecoder(r.Body).Decode(&b)
		f.sleep(r)
		items := make([]api.BatchItem, len(b.Queries))
		for i, q := range b.Queries {
			items[i] = api.BatchItem{QueryResponse: api.QueryResponse{Reachable: true, Algorithm: f.name + ":" + q.Source}}
		}
		writeJSON(w, http.StatusOK, api.BatchResponse{Results: items, Count: len(items)})
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, api.Health{Status: "ok"})
	})
	f.srv = httptest.NewServer(mux)
	t.Cleanup(f.srv.Close)
	return f
}

func (f *fakeBackend) sleep(r *http.Request) {
	if f.delay > 0 {
		select {
		case <-time.After(f.delay):
		case <-r.Context().Done():
		}
	}
}

func (f *fakeBackend) url() string { return f.srv.URL }

// postJSON sends one request through the coordinator handler.
func postJSON(t *testing.T, h http.Handler, path string, body any) *httptest.ResponseRecorder {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(raw))
	req.Header.Set("Content-Type", "application/json")
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

func batchOf(sources ...string) api.BatchRequest {
	req := api.BatchRequest{}
	for _, s := range sources {
		req.Queries = append(req.Queries, api.QueryRequest{Source: s, Target: "t"})
	}
	return req
}

// TestReplicaDownMidBatch: one of the two replicas a batch fans out to
// is dead. Its partition is redispatched to the surviving replica, and
// the merged response still answers every query in request order.
func TestReplicaDownMidBatch(t *testing.T) {
	live := newFakeBackend(t, "live", 0)
	dead := newFakeBackend(t, "dead", 0)
	dead.srv.Close() // down before the batch arrives

	co := NewCoordinator(Config{
		Writer:   live.url(),
		Replicas: []string{live.url(), dead.srv.URL},
	})
	w := postJSON(t, co, "/v1/batch", batchOf("q0", "q1", "q2", "q3", "q4"))
	if w.Code != http.StatusOK {
		t.Fatalf("batch answered %d: %s", w.Code, w.Body)
	}
	var resp api.BatchResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Count != 5 {
		t.Fatalf("count = %d", resp.Count)
	}
	for i, it := range resp.Results {
		want := fmt.Sprintf("q%d", i)
		if it.Error != "" || !strings.HasSuffix(it.Algorithm, ":"+want) {
			t.Fatalf("item %d = %+v, want an answer for %s", i, it, want)
		}
	}
	if got := live.batches.Load(); got != 2 {
		t.Fatalf("survivor saw %d sub-batches, want 2 (own partition + redispatched one)", got)
	}
}

// TestReplicaDownMidBatchBothFail: when a partition's replica and its
// redispatch target are both down, only that partition's slots answer
// per-item gateway errors — the rest of the batch still merges in
// order.
func TestReplicaDownMidBatchBothFail(t *testing.T) {
	deadA := newFakeBackend(t, "a", 0)
	deadB := newFakeBackend(t, "b", 0)
	deadA.srv.Close()
	deadB.srv.Close()
	writer := newFakeBackend(t, "writer", 0)

	co := NewCoordinator(Config{
		Writer:   writer.url(),
		Replicas: []string{deadA.srv.URL, deadB.srv.URL},
	})
	w := postJSON(t, co, "/v1/batch", batchOf("q0", "q1", "q2"))
	if w.Code != http.StatusOK {
		t.Fatalf("batch answered %d: %s", w.Code, w.Body)
	}
	var resp api.BatchResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Count != 3 {
		t.Fatalf("count = %d", resp.Count)
	}
	for i, it := range resp.Results {
		if it.Error == "" || !strings.HasPrefix(it.Error, "gateway: ") {
			t.Fatalf("item %d = %+v, want a gateway error", i, it)
		}
	}
}

// TestReplicaStalenessBound: a replica lagging past the staleness
// bound is never routed a read; the fresh replica takes them all. Once
// every replica is stale, reads fall back to the writer (never stale by
// definition).
func TestReplicaStalenessBound(t *testing.T) {
	fresh := newFakeBackend(t, "fresh", 0)
	stale := newFakeBackend(t, "stale", 0)
	writer := newFakeBackend(t, "writer", 0)

	co := NewCoordinator(Config{
		Writer:         writer.url(),
		Replicas:       []string{fresh.url(), stale.url()},
		StalenessBound: 2,
		HedgeAfter:     -1,
	})
	co.writerEpoch.Store(10)
	co.replicas[0].epoch.Store(10) // at head
	co.replicas[1].epoch.Store(5)  // lag 5 > bound 2

	q := api.QueryRequest{Source: "s", Target: "t"}
	for i := 0; i < 8; i++ {
		if w := postJSON(t, co, "/v1/query", q); w.Code != http.StatusOK {
			t.Fatalf("query answered %d: %s", w.Code, w.Body)
		}
	}
	if got := stale.queries.Load(); got != 0 {
		t.Fatalf("stale replica served %d reads, want 0", got)
	}
	if got := fresh.queries.Load(); got != 8 {
		t.Fatalf("fresh replica served %d reads, want 8", got)
	}

	// The gateway's health view marks the laggard unhealthy with its lag.
	req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
	w := httptest.NewRecorder()
	co.ServeHTTP(w, req)
	var ch api.ClusterHealth
	if err := json.Unmarshal(w.Body.Bytes(), &ch); err != nil {
		t.Fatal(err)
	}
	if len(ch.Replicas) != 2 || ch.Replicas[1].Healthy || ch.Replicas[1].Lag != 5 {
		t.Fatalf("cluster health = %+v", ch)
	}
	if !ch.Replicas[0].Healthy {
		t.Fatalf("fresh replica reported unhealthy: %+v", ch.Replicas[0])
	}

	// Both replicas stale -> the writer takes the reads.
	co.replicas[0].epoch.Store(5)
	for i := 0; i < 4; i++ {
		if w := postJSON(t, co, "/v1/query", q); w.Code != http.StatusOK {
			t.Fatalf("fallback query answered %d: %s", w.Code, w.Body)
		}
	}
	if got := writer.queries.Load(); got != 4 {
		t.Fatalf("writer served %d fallback reads, want 4", got)
	}
	if got := fresh.queries.Load(); got != 8 {
		t.Fatalf("stale-now replica served %d extra reads", got-8)
	}
}

// TestReplicaHedgedSlowWins: the primary replica stalls, the hedge
// timer fires a second copy against the other replica, and that copy's
// answer is relayed while the slow one's is drained and discarded —
// the client sees the fast answer well before the slow replica would
// have replied, and the slow replica's breaker stays closed (slow is
// not failed).
func TestReplicaHedgedSlowWins(t *testing.T) {
	slow := newFakeBackend(t, "slow", 2*time.Second)
	fast := newFakeBackend(t, "fast", 0)

	co := NewCoordinator(Config{
		Writer:     fast.url(),
		Replicas:   []string{slow.url(), fast.url()},
		HedgeAfter: 10 * time.Millisecond,
	})
	// Pin round-robin so the slow replica is the primary pick.
	co.rr.Store(1)

	start := time.Now()
	w := postJSON(t, co, "/v1/query", api.QueryRequest{Source: "s", Target: "t"})
	elapsed := time.Since(start)
	if w.Code != http.StatusOK {
		t.Fatalf("query answered %d: %s", w.Code, w.Body)
	}
	var resp api.QueryResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Algorithm != "fast:s" {
		t.Fatalf("answered by %q, want the hedged fast replica", resp.Algorithm)
	}
	if elapsed >= 2*time.Second {
		t.Fatalf("hedge saved nothing: %v", elapsed)
	}
	if got := slow.queries.Load(); got != 1 {
		t.Fatalf("slow replica saw %d requests, want 1 (the losing primary)", got)
	}
	if !co.replicas[0].available(time.Now()) {
		t.Fatal("losing (merely slow) replica's breaker opened")
	}
}

// TestReplicaBreakerOpensAndHeals: consecutive probe failures take a
// backend out of the rotation; the breaker re-admits it after cooldown
// and a successful probe closes it.
func TestReplicaBreakerOpensAndHeals(t *testing.T) {
	up := newFakeBackend(t, "up", 0)
	down := newFakeBackend(t, "down", 0)
	down.srv.Close()

	co := NewCoordinator(Config{
		Writer:        up.url(),
		Replicas:      []string{up.url(), down.srv.URL},
		FailThreshold: 2,
		Cooldown:      50 * time.Millisecond,
		HedgeAfter:    -1,
	})
	ctx := context.Background()
	co.ProbeNow(ctx)
	co.ProbeNow(ctx)
	if co.replicas[1].available(time.Now()) {
		t.Fatal("breaker still closed after threshold probe failures")
	}
	// Reads keep flowing through the healthy replica meanwhile.
	if w := postJSON(t, co, "/v1/query", api.QueryRequest{Source: "s", Target: "t"}); w.Code != http.StatusOK {
		t.Fatalf("query during outage answered %d", w.Code)
	}
	time.Sleep(60 * time.Millisecond)
	if !co.replicas[1].available(time.Now()) {
		t.Fatal("breaker did not re-admit after cooldown")
	}
}

// TestReplicaMutateFansInToWriter: /v1/mutate goes to the writer
// exactly once, never to a replica, and a success advances the
// gateway's view of the cluster head.
func TestReplicaMutateFansInToWriter(t *testing.T) {
	var mutates atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/mutate", func(w http.ResponseWriter, r *http.Request) {
		mutates.Add(1)
		writeJSON(w, http.StatusOK, lscr.ApplyResult{Epoch: 7, Added: 1})
	})
	writer := httptest.NewServer(mux)
	t.Cleanup(writer.Close)
	replica := newFakeBackend(t, "r", 0)

	co := NewCoordinator(Config{Writer: writer.URL, Replicas: []string{replica.url()}})
	w := postJSON(t, co, "/v1/mutate", api.MutateRequest{Mutations: []lscr.Mutation{{Op: "add-vertex", Subject: "v"}}})
	if w.Code != http.StatusOK {
		t.Fatalf("mutate answered %d: %s", w.Code, w.Body)
	}
	if got := mutates.Load(); got != 1 {
		t.Fatalf("writer saw %d mutates, want 1", got)
	}
	if got := co.writerEpoch.Load(); got != 7 {
		t.Fatalf("cluster head = %d after mutate, want 7", got)
	}
}

// TestReplicaMutateWriterDown: a writer transport failure surfaces as
// 502 from the gateway, and the gateway has sent the mutation exactly
// once — it never retries a write whose commit status is unknown.
func TestReplicaMutateWriterDown(t *testing.T) {
	writer := newFakeBackend(t, "w", 0)
	writer.srv.Close()
	replica := newFakeBackend(t, "r", 0)

	co := NewCoordinator(Config{Writer: writer.srv.URL, Replicas: []string{replica.url()}})
	w := postJSON(t, co, "/v1/mutate", api.MutateRequest{Mutations: []lscr.Mutation{{Op: "add-vertex", Subject: "v"}}})
	if w.Code != http.StatusBadGateway {
		t.Fatalf("mutate against dead writer answered %d", w.Code)
	}
}

// dispatch redispatches on a transport error or a 502/503, never on a
// definitive answer, and a caller-cancelled context is not the
// backend's failure: it feeds no breaker.
func TestReplicaTransientErrClassification(t *testing.T) {
	for _, tc := range []struct {
		res  attemptResult
		want bool
	}{
		{attemptResult{err: errors.New("connection refused")}, true},
		{attemptResult{status: http.StatusBadGateway}, true},
		{attemptResult{status: http.StatusServiceUnavailable}, true},
		{attemptResult{status: http.StatusBadRequest}, false},
		{attemptResult{status: http.StatusTooManyRequests}, false}, // shed, not broken
	} {
		if got := tc.res.transient(); got != tc.want {
			t.Errorf("transient(%+v) = %v, want %v", tc.res, got, tc.want)
		}
	}

	live := newFakeBackend(t, "live", 0)
	co := NewCoordinator(Config{Writer: live.url(), Replicas: []string{live.url()}})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	body, err := json.Marshal(batchOf("q0"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := co.dispatch(ctx, co.pickRead, 0, http.MethodPost, "/v1/batch", "", body, "application/json"); err == nil || !strings.Contains(err.Error(), context.Canceled.Error()) {
		t.Fatalf("cancelled dispatch answered %v, want a context error", err)
	}
	if n := co.writer.fails.Load(); n != 0 {
		t.Fatalf("a caller's cancellation fed the breaker %d failures", n)
	}
}

// TestReplicaBatchGroupsNeverHedge: a batch group goes to one replica
// at a time, however slow: only a failure hands it to the next, so two
// replicas each slower than HedgeAfter see one sub-batch each.
func TestReplicaBatchGroupsNeverHedge(t *testing.T) {
	a := newFakeBackend(t, "a", 50*time.Millisecond)
	b := newFakeBackend(t, "b", 50*time.Millisecond)
	co := NewCoordinator(Config{
		Writer:     a.url(),
		Replicas:   []string{a.url(), b.url()},
		HedgeAfter: 5 * time.Millisecond,
	})
	w := postJSON(t, co, "/v1/batch", batchOf("q0", "q1"))
	if w.Code != http.StatusOK {
		t.Fatalf("batch answered %d: %s", w.Code, w.Body)
	}
	var resp api.BatchResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	for i, it := range resp.Results {
		if it.Error != "" {
			t.Fatalf("item %d = %+v", i, it)
		}
	}
	if na, nb := a.batches.Load(), b.batches.Load(); na != 1 || nb != 1 {
		t.Fatalf("replicas saw %d and %d sub-batches, want 1 each (no hedge)", na, nb)
	}
}

// TestOverloadBudgetExpiresRead: a read whose Config.RequestBudget
// expires before any backend answers gets 504 with a JSON error — not
// an empty 200 — on both single-request read routes, and the slow
// replica's breaker is not charged for the caller's deadline.
func TestOverloadBudgetExpiresRead(t *testing.T) {
	slow := func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-time.After(300 * time.Millisecond):
			writeJSON(w, http.StatusOK, api.QueryResponse{Reachable: true})
		case <-r.Context().Done():
		}
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/query", slow)
	mux.HandleFunc("POST /select", slow)
	replica := httptest.NewServer(mux)
	t.Cleanup(replica.Close)
	writer := newFakeBackend(t, "writer", 0)

	co := NewCoordinator(Config{
		Writer:        writer.url(),
		Replicas:      []string{replica.URL},
		RequestBudget: 30 * time.Millisecond,
		HedgeAfter:    -1,
	})
	for _, rt := range []struct {
		path string
		body any
	}{
		{"/v1/query", api.QueryRequest{Source: "s", Target: "t"}},
		{"/select", map[string]string{"query": "SELECT ?x WHERE { ?x <p> ?y . }"}},
	} {
		w := postJSON(t, co, rt.path, rt.body)
		if w.Code != http.StatusGatewayTimeout {
			t.Fatalf("%s past its budget answered %d %q, want 504", rt.path, w.Code, w.Body)
		}
		var e api.Error
		if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil || e.Error == "" {
			t.Fatalf("%s 504 body %q is not an api.Error (%v)", rt.path, w.Body, err)
		}
	}
	if n := co.replicas[0].fails.Load(); n != 0 {
		t.Fatalf("expired budgets fed the replica's breaker %d failures", n)
	}
}

// TestReplicaSegmentThroughGatewayUncapped: the gateway streams GET
// /v1/segment from the writer rather than buffering it, so a segment
// image larger than the cap on buffered replies reaches a bootstrapping
// follower whole, with its epoch header.
func TestReplicaSegmentThroughGatewayUncapped(t *testing.T) {
	const size = maxRelayBody + 1
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/segment", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set(api.SegmentEpochHeader, "42")
		w.Header().Set("Content-Length", strconv.Itoa(size))
		chunk := make([]byte, 1<<20)
		for left := size; left > 0; {
			n := min(left, len(chunk))
			if _, err := w.Write(chunk[:n]); err != nil {
				return
			}
			left -= n
		}
	})
	writer := httptest.NewServer(mux)
	t.Cleanup(writer.Close)
	gw := httptest.NewServer(NewCoordinator(Config{Writer: writer.URL}))
	t.Cleanup(gw.Close)

	resp, err := http.Get(gw.URL + "/v1/segment")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	n, err := io.Copy(io.Discard, resp.Body)
	if err != nil {
		t.Fatalf("segment body after %d bytes: %v", n, err)
	}
	if resp.StatusCode != http.StatusOK || n != size {
		t.Fatalf("segment through the gateway: status %d, %d bytes; want 200, %d bytes", resp.StatusCode, n, size)
	}
	if got := resp.Header.Get(api.SegmentEpochHeader); got != "42" {
		t.Fatalf("segment epoch header = %q, want 42", got)
	}
}
