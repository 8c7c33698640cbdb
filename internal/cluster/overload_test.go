package cluster_test

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"lscr"
	"lscr/api"
	"lscr/client"
	"lscr/internal/cluster"
	"lscr/internal/failpoint"
	"lscr/server"
)

// stubBackend fakes one lscrd: a canned /healthz plus a caller-chosen
// /v1/query handler. Good enough for routing tests — the coordinator
// only ever sees wire responses.
func stubBackend(t *testing.T, healthz string, query http.HandlerFunc) *httptest.Server {
	t.Helper()
	return stubRoutes(t, healthz, map[string]http.HandlerFunc{"POST /v1/query": query})
}

// stubRoutes is stubBackend with a handler per route pattern; nil
// handlers are left unrouted.
func stubRoutes(t *testing.T, healthz string, routes map[string]http.HandlerFunc) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(healthz))
	})
	for pattern, h := range routes {
		if h != nil {
			mux.HandleFunc(pattern, h)
		}
	}
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

// answerBatch answers every query of a /v1/batch request reachable.
func answerBatch(w http.ResponseWriter, r *http.Request) {
	var req api.BatchRequest
	json.NewDecoder(r.Body).Decode(&req)
	items := make([]api.BatchItem, len(req.Queries))
	for i := range items {
		items[i].Reachable = true
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(api.BatchResponse{Results: items, Count: len(items)})
}

// batchOf4 is a batch that partitions across two replicas.
func batchOf4() api.BatchRequest {
	return api.BatchRequest{Queries: []api.QueryRequest{
		{Source: "a", Target: "b"}, {Source: "b", Target: "c"},
		{Source: "c", Target: "d"}, {Source: "d", Target: "e"},
	}}
}

func answer200(body string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(body))
	}
}

func answer429(retryAfter string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", retryAfter)
		http.Error(w, `{"error":"server overloaded; retry later"}`, http.StatusTooManyRequests)
	}
}

func gatewayHealth(t *testing.T, url string) api.ClusterHealth {
	t.Helper()
	resp, err := http.Get(url + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out api.ClusterHealth
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestOverloadShedRedirectsRead: a replica answering 429 loses the
// read — redispatched to the healthy replica, no breaker trip — and
// shows up as shedding (not unhealthy) on the gateway's /healthz.
func TestOverloadShedRedirectsRead(t *testing.T) {
	const okHealth = `{"status":"ok"}`
	shedding := stubBackend(t, okHealth, answer429("1"))
	healthy := stubBackend(t, okHealth, answer200(`{"reachable":true}`))
	writer := stubBackend(t, okHealth, nil)

	gw := cluster.NewCoordinator(cluster.Config{
		Writer:   writer.URL,
		Replicas: []string{shedding.URL, healthy.URL},
		Logf:     t.Logf,
	})
	gwSrv := httptest.NewServer(gw)
	t.Cleanup(gwSrv.Close)

	c := client.New(gwSrv.URL, client.WithRetry(1, 0))
	// Several reads: round-robin will land some primaries on the
	// shedding replica; every one must still come back 200.
	for i := 0; i < 6; i++ {
		resp, err := c.Query(context.Background(), api.QueryRequest{Source: "a", Target: "b"})
		if err != nil {
			t.Fatalf("read %d through shedding cluster: %v", i, err)
		}
		if !resp.Reachable {
			t.Fatalf("read %d: %+v", i, resp)
		}
	}
	h := gatewayHealth(t, gwSrv.URL)
	var shed, broken int
	for _, r := range h.Replicas {
		if r.Shedding {
			shed++
		}
		if r.Breaker != "closed" {
			broken++
		}
	}
	if shed != 1 {
		t.Fatalf("replicas shedding = %d, want 1: %+v", shed, h.Replicas)
	}
	if broken != 0 {
		t.Fatalf("a shed opened a breaker: %+v", h.Replicas)
	}
	if h.Sheds != 0 {
		t.Fatalf("gateway relayed %d sheds despite a healthy replica", h.Sheds)
	}
}

// TestOverloadShedRedirectsReadBatch: /v1/batch follows the same shed
// rule — the group a replica sheds (429) is redispatched to the healthy
// replica, with no breaker trip and no per-item error.
func TestOverloadShedRedirectsReadBatch(t *testing.T) {
	const okHealth = `{"status":"ok"}`
	shedding := stubRoutes(t, okHealth, map[string]http.HandlerFunc{"POST /v1/batch": answer429("1")})
	healthy := stubRoutes(t, okHealth, map[string]http.HandlerFunc{"POST /v1/batch": answerBatch})
	writer := stubBackend(t, okHealth, nil)

	gw := cluster.NewCoordinator(cluster.Config{
		Writer:   writer.URL,
		Replicas: []string{shedding.URL, healthy.URL},
		Logf:     t.Logf,
	})
	gwSrv := httptest.NewServer(gw)
	t.Cleanup(gwSrv.Close)

	c := client.New(gwSrv.URL, client.WithRetry(1, 0))
	resp, err := c.Batch(context.Background(), batchOf4())
	if err != nil {
		t.Fatal(err)
	}
	for i, it := range resp.Results {
		if it.Error != "" || !it.Reachable {
			t.Fatalf("item %d through shedding cluster = %+v", i, it)
		}
	}
	h := gatewayHealth(t, gwSrv.URL)
	var shed, broken int
	for _, r := range h.Replicas {
		if r.Shedding {
			shed++
		}
		if r.Breaker != "closed" {
			broken++
		}
	}
	if shed != 1 || broken != 0 || h.Sheds != 0 {
		t.Fatalf("shedding = %d, broken = %d, sheds = %d; want 1, 0, 0: %+v", shed, broken, h.Sheds, h.Replicas)
	}
}

// TestOverloadRelays429WhenSaturated: when every backend sheds, the
// gateway relays the 429 — Retry-After intact, sheds counter up — so
// the client's retry policy takes over instead of seeing a fake 502.
func TestOverloadRelays429WhenSaturated(t *testing.T) {
	const okHealth = `{"status":"ok"}`
	a := stubBackend(t, okHealth, answer429("7"))
	b := stubBackend(t, okHealth, answer429("7"))
	writer := stubBackend(t, okHealth, answer429("7"))

	gw := cluster.NewCoordinator(cluster.Config{
		Writer:   writer.URL,
		Replicas: []string{a.URL, b.URL},
		Logf:     t.Logf,
	})
	gwSrv := httptest.NewServer(gw)
	t.Cleanup(gwSrv.Close)

	req, err := http.NewRequest("POST", gwSrv.URL+"/v1/query", strings.NewReader(`{"source":"a","target":"b"}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated cluster answered %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "7" {
		t.Fatalf("Retry-After = %q, want relayed %q", ra, "7")
	}
	if h := gatewayHealth(t, gwSrv.URL); h.Sheds < 1 {
		t.Fatalf("sheds counter = %d, want >= 1", h.Sheds)
	}
}

// TestOverloadBudgetPropagates: with Config.RequestBudget set, every
// forwarded read carries the remaining budget in api.BudgetHeader.
func TestOverloadBudgetPropagates(t *testing.T) {
	const okHealth = `{"status":"ok"}`
	var gotBudget atomic.Int64
	backend := stubBackend(t, okHealth, func(w http.ResponseWriter, r *http.Request) {
		if ms, err := strconv.ParseInt(r.Header.Get(api.BudgetHeader), 10, 64); err == nil {
			gotBudget.Store(ms)
		}
		answer200(`{"reachable":true}`)(w, r)
	})
	writer := stubBackend(t, okHealth, nil)
	gw := cluster.NewCoordinator(cluster.Config{
		Writer:        writer.URL,
		Replicas:      []string{backend.URL},
		RequestBudget: 750 * time.Millisecond,
		Logf:          t.Logf,
	})
	gwSrv := httptest.NewServer(gw)
	t.Cleanup(gwSrv.Close)

	c := client.New(gwSrv.URL, client.WithRetry(1, 0))
	if _, err := c.Query(context.Background(), api.QueryRequest{Source: "a", Target: "b"}); err != nil {
		t.Fatal(err)
	}
	ms := gotBudget.Load()
	if ms <= 0 || ms > 750 {
		t.Fatalf("backend saw budget %dms, want (0, 750]", ms)
	}
}

// TestOverloadBudgetPropagatesBatch: a /v1/batch group carries the
// remaining Config.RequestBudget in api.BudgetHeader, as a read does.
func TestOverloadBudgetPropagatesBatch(t *testing.T) {
	const okHealth = `{"status":"ok"}`
	var gotBudget atomic.Int64
	backend := stubRoutes(t, okHealth, map[string]http.HandlerFunc{"POST /v1/batch": func(w http.ResponseWriter, r *http.Request) {
		if ms, err := strconv.ParseInt(r.Header.Get(api.BudgetHeader), 10, 64); err == nil {
			gotBudget.Store(ms)
		}
		answerBatch(w, r)
	}})
	writer := stubBackend(t, okHealth, nil)
	gw := cluster.NewCoordinator(cluster.Config{
		Writer:        writer.URL,
		Replicas:      []string{backend.URL},
		RequestBudget: 750 * time.Millisecond,
		Logf:          t.Logf,
	})
	gwSrv := httptest.NewServer(gw)
	t.Cleanup(gwSrv.Close)

	c := client.New(gwSrv.URL, client.WithRetry(1, 0))
	resp, err := c.Batch(context.Background(), batchOf4())
	if err != nil {
		t.Fatal(err)
	}
	if it := resp.Results[0]; it.Error != "" || !it.Reachable {
		t.Fatalf("batch item 0 = %+v", it)
	}
	if ms := gotBudget.Load(); ms <= 0 || ms > 750 {
		t.Fatalf("backend saw budget %dms, want (0, 750]", ms)
	}
}

// TestOverloadWriterPoisonedFailsStatic: once a probe sees the
// writer's degraded (poisoned) /healthz, mutations short-circuit at
// the gateway with 503 + Retry-After and the cluster health says so;
// reads keep routing to replicas.
func TestOverloadWriterPoisonedFailsStatic(t *testing.T) {
	writer := stubBackend(t, `{"status":"degraded","poisoned":"injected wal failure"}`, nil)
	replica := stubBackend(t, `{"status":"ok"}`, answer200(`{"reachable":true}`))
	gw := cluster.NewCoordinator(cluster.Config{
		Writer:   writer.URL,
		Replicas: []string{replica.URL},
		Logf:     t.Logf,
	})
	gw.ProbeNow(context.Background())
	gwSrv := httptest.NewServer(gw)
	t.Cleanup(gwSrv.Close)

	resp, err := http.Post(gwSrv.URL+"/v1/mutate", "application/json",
		strings.NewReader(`{"mutations":[{"op":"add-vertex","subject":"x"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("mutate against poisoned writer = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("poisoned-writer 503 carried no Retry-After")
	}

	h := gatewayHealth(t, gwSrv.URL)
	if !h.WriterPoisoned || h.Status != "degraded" {
		t.Fatalf("cluster health = status %q writerPoisoned %v", h.Status, h.WriterPoisoned)
	}

	c := client.New(gwSrv.URL, client.WithRetry(1, 0))
	if _, err := c.Query(context.Background(), api.QueryRequest{Source: "a", Target: "b"}); err != nil {
		t.Fatalf("read while writer poisoned: %v", err)
	}
}

// TestChaosFollowerBootstrapFailpoint: an injected bootstrap failure
// surfaces cleanly from StartFollower, and the next attempt (the
// supervisor's restart) succeeds once the one-shot policy is spent.
func TestChaosFollowerBootstrapFailpoint(t *testing.T) {
	dir := t.TempDir()
	kg, err := lscr.Load(strings.NewReader(e2eKG))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := lscr.Create(dir, kg, lscr.Options{CompactAfter: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	writerSrv := serveOn(t, "127.0.0.1:0", server.New(eng, eng.KG()))
	t.Cleanup(writerSrv.Close)

	if err := failpoint.Set(cluster.FPFollowerBootstrap, "error-once"); err != nil {
		t.Fatal(err)
	}
	defer failpoint.DisarmAll()
	cfg := cluster.FollowerConfig{Writer: writerSrv.URL, Poll: 100 * time.Millisecond, Retry: 10 * time.Millisecond}
	if _, err := cluster.StartFollower(context.Background(), cfg); err == nil {
		t.Fatal("bootstrap succeeded through an armed error-once failpoint")
	}
	f, err := cluster.StartFollower(context.Background(), cfg)
	if err != nil {
		t.Fatalf("second bootstrap (failpoint spent): %v", err)
	}
	t.Cleanup(f.Close)
	if got, want := f.Epoch(), eng.Epoch().Epoch; got != want {
		t.Fatalf("follower epoch = %d after bootstrap, want %d", got, want)
	}
}
