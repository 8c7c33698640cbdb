package cluster_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"lscr"
	"lscr/api"
	"lscr/client"
	"lscr/internal/cluster"
	"lscr/server"
)

const e2eKG = `
<C> <apr> <X> .
<X> <apr> <P> .
<X> <married> <Amy> .
<C> <may> <P> .
`

const e2eConstraint = `SELECT ?x WHERE { ?x <married> <Amy>. }`

// compareQueries is the probe set the identity checks run against
// every engine: reachable and unreachable pairs, a witness request
// (search-order dependent — identical only under identical indexes),
// and an unknown-vertex error.
var compareQueries = []api.QueryRequest{
	{Source: "C", Target: "P", Labels: []string{"apr", "married"}, Constraint: e2eConstraint},
	{Source: "C", Target: "P", Labels: []string{"apr", "married"}, Constraint: e2eConstraint, Witness: true},
	{Source: "C", Target: "Amy", Labels: []string{"apr", "married"}, Constraint: e2eConstraint},
	{Source: "P", Target: "C", Labels: []string{"apr", "married"}, Constraint: e2eConstraint},
	{Source: "C", Target: "N1", Labels: []string{"apr", "married"}, Constraint: e2eConstraint},
	{Source: "C", Target: "P", Labels: []string{"apr", "married"}, Constraint: e2eConstraint, Algorithm: "uis"},
	{Source: "no-such-vertex", Target: "P", Constraint: e2eConstraint},
}

// answers runs the probe set against one /v1 endpoint and flattens
// each reply (timing zeroed) to a comparable string.
func answers(t *testing.T, c *client.Client) []string {
	t.Helper()
	ctx := context.Background()
	out := make([]string, len(compareQueries))
	for i, q := range compareQueries {
		resp, err := c.Query(ctx, q)
		if err != nil {
			var apiErr *client.APIError
			if !errors.As(err, &apiErr) {
				t.Fatalf("query %d: %v", i, err)
			}
			out[i] = fmt.Sprintf("error %d: %s", apiErr.StatusCode, apiErr.Message)
			continue
		}
		resp.ElapsedUS = 0
		raw, err := json.Marshal(resp)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = string(raw)
	}
	return out
}

// mustSame asserts two engines' probe answers are bit-identical.
func mustSame(t *testing.T, what string, want, got []string) {
	t.Helper()
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s diverged on query %d:\n  oracle: %s\n  got:    %s", what, i, want[i], got[i])
		}
	}
}

func waitEpoch(t *testing.T, f *cluster.Follower, ep uint64) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if f.Epoch() >= ep {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("follower stuck at epoch %d, want >= %d", f.Epoch(), ep)
}

// harness is one live cluster: a persistent writer on a re-bindable
// address, two followers tailing it, a gateway over the three, and an
// in-memory oracle engine fed the same mutation batches.
type harness struct {
	dir        string
	writerEng  *lscr.Engine
	writerSrv  *httptest.Server
	writerAddr string
	f1, f2     *cluster.Follower
	f1Srv      *httptest.Server
	f2Srv      *httptest.Server
	gw         *cluster.Coordinator
	gwSrv      *httptest.Server
	oracle     *lscr.Engine
	oracleSrv  *httptest.Server
}

func loadKG(t *testing.T) *lscr.KG {
	t.Helper()
	kg, err := lscr.Load(strings.NewReader(e2eKG))
	if err != nil {
		t.Fatal(err)
	}
	return kg
}

// serveOn mounts h on a real listener bound to addr ("127.0.0.1:0"
// picks a port; a concrete addr re-binds it, which is how the writer
// restarts in place).
func serveOn(t *testing.T, addr string, h http.Handler) *httptest.Server {
	t.Helper()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewUnstartedServer(h)
	srv.Listener.Close()
	srv.Listener = ln
	srv.Start()
	return srv
}

// newHarness boots the cluster. CompactAfter -1 keeps compaction
// manual, so every seal happens at a quiescent point — the regime in
// which follower state (graph AND index) is bit-identical to the
// writer's, making the answer comparison exact.
func newHarness(t *testing.T) *harness {
	t.Helper()
	h := &harness{dir: t.TempDir()}
	opts := lscr.Options{CompactAfter: -1}

	eng, err := lscr.Create(h.dir, loadKG(t), opts)
	if err != nil {
		t.Fatal(err)
	}
	h.writerEng = eng
	h.writerSrv = serveOn(t, "127.0.0.1:0", server.New(eng, eng.KG()))
	h.writerAddr = h.writerSrv.Listener.Addr().String()
	t.Cleanup(func() { h.writerSrv.Close() })

	fcfg := cluster.FollowerConfig{
		Writer: h.writerSrv.URL,
		Poll:   150 * time.Millisecond,
		Retry:  25 * time.Millisecond,
	}
	ctx := context.Background()
	if h.f1, err = cluster.StartFollower(ctx, fcfg); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(h.f1.Close)
	if h.f2, err = cluster.StartFollower(ctx, fcfg); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(h.f2.Close)
	h.f1Srv = httptest.NewServer(h.f1)
	t.Cleanup(h.f1Srv.Close)
	h.f2Srv = httptest.NewServer(h.f2)
	t.Cleanup(h.f2Srv.Close)

	h.gw = cluster.NewCoordinator(cluster.Config{
		Writer:        h.writerSrv.URL,
		Replicas:      []string{h.f1Srv.URL, h.f2Srv.URL},
		ProbeInterval: 100 * time.Millisecond,
		Logf:          t.Logf,
	})
	h.gw.Start()
	t.Cleanup(h.gw.Close)
	h.gwSrv = httptest.NewServer(h.gw)
	t.Cleanup(h.gwSrv.Close)

	h.oracle = lscr.NewEngine(loadKG(t), opts)
	h.oracleSrv = httptest.NewServer(server.New(h.oracle, h.oracle.KG()))
	t.Cleanup(h.oracleSrv.Close)
	return h
}

// mutate commits one batch through the gateway AND on the oracle, then
// waits for both followers to replicate past the committed epoch.
func (h *harness) mutate(t *testing.T, muts []lscr.Mutation) uint64 {
	t.Helper()
	ctx := context.Background()
	resp, err := client.New(h.gwSrv.URL).Mutate(ctx, muts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.oracle.Apply(ctx, muts); err != nil {
		t.Fatal(err)
	}
	waitEpoch(t, h.f1, resp.Epoch)
	waitEpoch(t, h.f2, resp.Epoch)
	return resp.Epoch
}

// checkIdentity compares writer, both followers and the gateway
// against the oracle at the current (settled) epoch.
func (h *harness) checkIdentity(t *testing.T, when string) {
	t.Helper()
	want := answers(t, client.New(h.oracleSrv.URL))
	mustSame(t, when+": writer", want, answers(t, client.New(h.writerSrv.URL)))
	mustSame(t, when+": follower 1", want, answers(t, client.New(h.f1Srv.URL)))
	mustSame(t, when+": follower 2", want, answers(t, client.New(h.f2Srv.URL)))
	// The gateway routes each read to some replica; run the probe set a
	// few times so both replicas (and hedges) are exercised.
	gw := client.New(h.gwSrv.URL)
	for i := 0; i < 3; i++ {
		mustSame(t, when+": gateway", want, answers(t, gw))
	}
}

// seal compacts writer and oracle at a quiescent point and waits for
// the followers to replay the seal record.
func (h *harness) seal(t *testing.T) {
	t.Helper()
	ctx := context.Background()
	if _, err := h.writerEng.Compact(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := h.oracle.Compact(ctx); err != nil {
		t.Fatal(err)
	}
	head := h.writerEng.Epoch().Epoch
	waitEpoch(t, h.f1, head)
	waitEpoch(t, h.f2, head)
}

var e2eRounds = [][]lscr.Mutation{
	{
		{Op: "add-edge", Subject: "P", Label: "apr", Object: "N1"},
		{Op: "add-edge", Subject: "N1", Label: "married", Object: "Amy"},
	},
	{
		{Op: "delete-edge", Subject: "C", Label: "may", Object: "P"},
		{Op: "add-vertex", Subject: "N2"},
	},
	{
		{Op: "add-edge", Subject: "N2", Label: "apr", Object: "C"},
		{Op: "add-edge", Subject: "N1", Label: "apr", Object: "N2"},
	},
}

// TestReplicaClusterIdentity: 1 writer + 2 followers + gateway answer
// bit-identically to a single in-memory engine fed the same mutation
// batches, at every replicated epoch — through live mutations, a
// writer compaction (seal) replayed by the followers, and mutations on
// top of the sealed state. This is the answer-identity proof the
// replication design rests on: followers replay the writer's WAL
// through the engine's normal commit path, so there is nothing else
// they could answer.
func TestReplicaClusterIdentity(t *testing.T) {
	h := newHarness(t)
	h.checkIdentity(t, "bootstrap")

	h.mutate(t, e2eRounds[0])
	h.checkIdentity(t, "round 1")

	h.mutate(t, e2eRounds[1])
	h.checkIdentity(t, "round 2")

	h.seal(t)
	h.checkIdentity(t, "after seal")

	h.mutate(t, e2eRounds[2])
	h.checkIdentity(t, "round 3 (post-seal)")

	// Batch fan-out/merge through the gateway: per-request order and
	// error mapping must match the oracle answering the same batch.
	ctx := context.Background()
	req := api.BatchRequest{Queries: compareQueries}
	want, err := client.New(h.oracleSrv.URL).Batch(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	got, err := client.New(h.gwSrv.URL).Batch(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if got.Count != want.Count {
		t.Fatalf("batch count %d vs oracle %d", got.Count, want.Count)
	}
	for i := range want.Results {
		w, g := want.Results[i], got.Results[i]
		w.ElapsedUS, g.ElapsedUS = 0, 0
		wraw, _ := json.Marshal(w)
		graw, _ := json.Marshal(g)
		if string(wraw) != string(graw) {
			t.Fatalf("batch item %d diverged:\n  oracle: %s\n  gateway: %s", i, wraw, graw)
		}
	}
}

// TestReplicaFollowerCrashRetail: a follower dies, misses mutations
// AND a compaction that rotates the WAL past its cursor, and a
// replacement bootstraps from the newest sealed segment and catches up
// to identical answers. A feed read at the pre-rotation cursor answers
// 410 Gone — the signal that drives re-bootstrap.
func TestReplicaFollowerCrashRetail(t *testing.T) {
	h := newHarness(t)
	h.mutate(t, e2eRounds[0])
	crashCursor := h.f1.Epoch()
	h.f1.Close() // crash: stops tailing, state frozen

	// The cluster moves on: more mutations, then a seal, which rotates
	// the WAL up to the sealed epoch.
	h2 := h.mutateSansF1(t, e2eRounds[1])
	_ = h2
	ctx := context.Background()
	if _, err := h.writerEng.Compact(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := h.oracle.Compact(ctx); err != nil {
		t.Fatal(err)
	}
	h.mutateSansF1(t, e2eRounds[2])

	// The crashed follower's cursor now lies below the WAL horizon.
	wcli := client.New(h.writerSrv.URL)
	_, err := wcli.Replicate(ctx, crashCursor, 0)
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusGone {
		t.Fatalf("replicate below horizon: %v, want 410 Gone", err)
	}

	// A replacement bootstraps from the newest segment and re-tails.
	fr, err := cluster.StartFollower(ctx, cluster.FollowerConfig{
		Writer: h.writerSrv.URL,
		Poll:   150 * time.Millisecond,
		Retry:  25 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fr.Close()
	waitEpoch(t, fr, h.writerEng.Epoch().Epoch)
	frSrv := httptest.NewServer(fr)
	defer frSrv.Close()
	want := answers(t, client.New(h.oracleSrv.URL))
	mustSame(t, "re-bootstrapped follower", want, answers(t, client.New(frSrv.URL)))
}

// mutateSansF1 is h.mutate for the phase in which follower 1 is down:
// only follower 2 is waited on.
func (h *harness) mutateSansF1(t *testing.T, muts []lscr.Mutation) uint64 {
	t.Helper()
	ctx := context.Background()
	resp, err := client.New(h.gwSrv.URL).Mutate(ctx, muts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.oracle.Apply(ctx, muts); err != nil {
		t.Fatal(err)
	}
	waitEpoch(t, h.f2, resp.Epoch)
	return resp.Epoch
}

// TestReplicaWriterRestart: the writer process dies and comes back on
// the same address (lscr.Open over its data directory — WAL replay
// restores the exact epoch). The followers' tail loops ride out the
// outage with backoff and resume from their cursors — no re-bootstrap
// — and the next mutation reaches them with answers still identical
// to the oracle.
func TestReplicaWriterRestart(t *testing.T) {
	h := newHarness(t)
	h.mutate(t, e2eRounds[0])
	h.checkIdentity(t, "pre-restart")
	bootstrapsBefore := h.f1.Bootstraps() + h.f2.Bootstraps()

	// Crash the writer: listener gone, engine closed without a seal, so
	// restart exercises WAL replay.
	h.writerSrv.Close()
	if err := h.writerEng.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen on the same address.
	eng, err := lscr.Open(h.dir, lscr.Options{CompactAfter: -1})
	if err != nil {
		t.Fatal(err)
	}
	h.writerEng = eng
	h.writerSrv = serveOn(t, h.writerAddr, server.New(eng, eng.KG()))
	t.Cleanup(func() { h.writerSrv.Close() })

	// The followers re-tail from their cursors once the feed is back.
	h.mutate(t, e2eRounds[1])
	h.checkIdentity(t, "post-restart")
	if got := h.f1.Bootstraps() + h.f2.Bootstraps(); got != bootstrapsBefore {
		t.Fatalf("writer restart forced %d re-bootstraps; followers must re-tail from their cursors", got-bootstrapsBefore)
	}
}

// TestRemovedPreV1Routes: the pre-v1 query routes are gone from both
// the server and the gateway in front of it — they answer 404 — while
// /select and /v1/query keep answering.
func TestRemovedPreV1Routes(t *testing.T) {
	srv := httptest.NewServer(server.New(lscr.NewEngine(loadKG(t), lscr.Options{}), nil))
	t.Cleanup(srv.Close)
	gw := cluster.NewCoordinator(cluster.Config{Writer: srv.URL, Logf: t.Logf})
	t.Cleanup(gw.Close)

	query := `{"source":"C","target":"P","constraint":"` + e2eConstraint + `"}`
	cases := []struct {
		path, body string
		want       int
	}{
		{"/reach", query, http.StatusNotFound},
		{"/reachbatch", `{"queries":[` + query + `]}`, http.StatusNotFound},
		{"/reachall", `{"source":"C","target":"P","constraints":["` + e2eConstraint + `"]}`, http.StatusNotFound},
		{"/select", `{"query":"` + e2eConstraint + `"}`, http.StatusOK},
		{"/v1/query", query, http.StatusOK},
	}
	for _, h := range []struct {
		name    string
		handler http.Handler
	}{{"server", srv.Config.Handler}, {"gateway", gw}} {
		for _, tc := range cases {
			req := httptest.NewRequest(http.MethodPost, tc.path, strings.NewReader(tc.body))
			req.Header.Set("Content-Type", "application/json")
			w := httptest.NewRecorder()
			h.handler.ServeHTTP(w, req)
			if w.Code != tc.want {
				t.Errorf("%s %s: status %d, want %d (%s)", h.name, tc.path, w.Code, tc.want, w.Body)
			}
		}
	}
}
