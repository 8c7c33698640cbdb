package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"lscr"
	"lscr/api"
)

const testKG = `
<C> <apr> <X> .
<X> <apr> <P> .
<X> <married> <Amy> .
<C> <may> <P> .
`

func testServer(t *testing.T) *httptest.Server {
	return testServerOpts(t, lscr.Options{})
}

func testServerOpts(t *testing.T, opts lscr.Options) *httptest.Server {
	t.Helper()
	kg, err := lscr.Load(strings.NewReader(testKG))
	if err != nil {
		t.Fatal(err)
	}
	eng := lscr.NewEngine(kg, opts)
	srv := httptest.NewServer(New(eng, kg))
	t.Cleanup(srv.Close)
	return srv
}

func postJSON(t *testing.T, url string, body any) (*http.Response, map[string]any) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return resp, out
}

const testConstraint = `SELECT ?x WHERE { ?x <married> <Amy>. }`

func TestHealthz(t *testing.T) {
	srv := testServer(t)
	for _, path := range []string{"/healthz", "/v1/healthz"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		var out api.Health
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if out.Status != "ok" || out.Vertices != 4 {
			t.Fatalf("%s = %+v", path, out)
		}
		if out.Version == "" {
			t.Errorf("%s reports no version", path)
		}
		if out.API != api.Version {
			t.Errorf("%s api = %q, want %q", path, out.API, api.Version)
		}
		ix := out.Index
		if ix == nil || ix.Landmarks == 0 || ix.SizeBytes <= 0 {
			t.Fatalf("%s index = %+v, want the serving index's stats", path, ix)
		}
		if sum := ix.RegionBytes + ix.IIBytes + ix.EITBytes + ix.DBytes; sum != ix.SizeBytes {
			t.Errorf("%s index parts sum to %d, size_bytes %d", path, sum, ix.SizeBytes)
		}
	}
}

// TestV1Query: the unified endpoint answers every algorithm, returns
// the unified witness shape, and renders traces on demand.
func TestV1Query(t *testing.T) {
	srv := testServer(t)
	for _, algo := range []string{"", "ins", "uis", "uisstar", "conjunctive"} {
		resp, out := postJSON(t, srv.URL+"/v1/query", api.QueryRequest{
			Source: "C", Target: "P",
			Labels:     []string{"apr", "married"},
			Constraint: testConstraint,
			Algorithm:  algo,
			Witness:    true,
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%q: status %d: %v", algo, resp.StatusCode, out)
		}
		if out["reachable"] != true {
			t.Fatalf("%q: %v", algo, out)
		}
		w, ok := out["witness"].(map[string]any)
		if !ok {
			t.Fatalf("%q: witness = %v", algo, out["witness"])
		}
		sat, ok := w["satisfied_by"].([]any)
		if !ok || len(sat) != 1 || sat[0] != "X" {
			t.Fatalf("%q: satisfied_by = %v", algo, w["satisfied_by"])
		}
	}

	// Trace rendering.
	resp, out := postJSON(t, srv.URL+"/v1/query", api.QueryRequest{
		Source: "C", Target: "P",
		Labels:     []string{"apr", "married"},
		Constraint: testConstraint,
		Algorithm:  "uis",
		Trace:      true,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace: status %d: %v", resp.StatusCode, out)
	}
	dot, _ := out["trace_dot"].(string)
	if !strings.HasPrefix(dot, "digraph") {
		t.Fatalf("trace_dot = %q", dot)
	}
}

// TestV1QueryConjunctive: several constraints select the conjunctive
// search and report per-constraint satisfying vertices.
func TestV1QueryConjunctive(t *testing.T) {
	srv := testServer(t)
	resp, out := postJSON(t, srv.URL+"/v1/query", api.QueryRequest{
		Source: "C", Target: "P",
		Labels: []string{"apr", "married"},
		Constraints: []string{
			testConstraint,
			`SELECT ?x WHERE { <C> <apr> ?x. }`,
		},
		Witness: true,
	})
	if resp.StatusCode != http.StatusOK || out["reachable"] != true {
		t.Fatalf("status=%d out=%v", resp.StatusCode, out)
	}
	if out["algorithm"] != "conjunctive" {
		t.Errorf("algorithm = %v, want conjunctive", out["algorithm"])
	}
	w := out["witness"].(map[string]any)
	if sat := w["satisfied_by"].([]any); len(sat) != 2 {
		t.Errorf("satisfied_by = %v, want 2 entries", sat)
	}
}

func TestV1QueryErrors(t *testing.T) {
	srv := testServer(t)
	cases := []struct {
		name string
		body api.QueryRequest
	}{
		{"unknown vertex", api.QueryRequest{Source: "nope", Target: "P", Constraint: testConstraint}},
		{"bad algorithm", api.QueryRequest{Source: "C", Target: "P", Constraint: testConstraint, Algorithm: "dijkstra"}},
		{"bad constraint", api.QueryRequest{Source: "C", Target: "P", Constraint: "garbage"}},
		{"both constraint fields", api.QueryRequest{Source: "C", Target: "P",
			Constraint: testConstraint, Constraints: []string{testConstraint}}},
		{"no constraints", api.QueryRequest{Source: "C", Target: "P"}},
		{"trace on conjunction", api.QueryRequest{Source: "C", Target: "P",
			Constraints: []string{testConstraint, testConstraint}, Trace: true}},
	}
	for _, tc := range cases {
		resp, out := postJSON(t, srv.URL+"/v1/query", tc.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d (%v)", tc.name, resp.StatusCode, out)
		}
	}
}

// TestV1QueryTooManyPatterns: a constraint beyond the matcher's 64
// triple patterns is a client error under every algorithm, answered 400
// instead of taking the handler down.
func TestV1QueryTooManyPatterns(t *testing.T) {
	srv := testServer(t)
	huge := "SELECT ?x WHERE {" + strings.Repeat(" ?x <married> <Amy>.", 65) + " }"
	for _, algo := range []string{"ins", "uis", "uisstar", "conjunctive"} {
		resp, out := postJSON(t, srv.URL+"/v1/query", api.QueryRequest{
			Source: "C", Target: "P", Constraint: huge, Algorithm: algo,
		})
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d (%v)", algo, resp.StatusCode, out)
		}
	}
}

// TestV1QueryTimeout: a server-side deadline that cannot be met
// answers 504, not 500.
func TestV1QueryTimeout(t *testing.T) {
	srv := testServer(t)
	resp, out := postJSON(t, srv.URL+"/v1/query", api.QueryRequest{
		Source: "C", Target: "P",
		Constraint: testConstraint,
		TimeoutMS:  1,
	})
	// The toy graph usually answers in far under a millisecond, so both
	// outcomes are legal; what must never happen is a 500.
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d: %v", resp.StatusCode, out)
	}
}

func TestV1Batch(t *testing.T) {
	srv := testServer(t)
	req := api.BatchRequest{
		Concurrency: 4,
		Queries: []api.QueryRequest{
			{Source: "C", Target: "P", Labels: []string{"apr", "married"}, Constraint: testConstraint},
			{Source: "C", Target: "P", Labels: []string{"may"}, Constraint: testConstraint},
			{Source: "nope", Target: "P", Constraint: testConstraint},
			{Source: "C", Target: "P", Constraint: testConstraint, Algorithm: "dijkstra"},
			{Source: "C", Target: "P", Labels: []string{"apr", "married"},
				Constraints: []string{testConstraint, `SELECT ?x WHERE { <C> <apr> ?x. }`}},
			{Source: "C", Target: "P", Constraint: testConstraint, Trace: true},
		},
	}
	raw, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hresp, err := http.Post(srv.URL+"/v1/batch", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", hresp.StatusCode)
	}
	var out api.BatchResponse
	if err := json.NewDecoder(hresp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Count != 6 || len(out.Results) != 6 {
		t.Fatalf("count = %d, results = %d", out.Count, len(out.Results))
	}
	want := []struct {
		reachable bool
		hasError  bool
	}{
		{true, false},  // evidence chain exists
		{false, false}, // label set excludes the chain
		{false, true},  // unknown vertex: per-item error
		{false, true},  // unknown algorithm: per-item error
		{true, false},  // conjunctive query in the same batch
		{false, true},  // trace in a batch: rejected per item
	}
	for i, w := range want {
		it := out.Results[i]
		if it.Reachable != w.reachable || (it.Error != "") != w.hasError {
			t.Errorf("query %d: %+v, want reachable=%v hasError=%v", i, it, w.reachable, w.hasError)
		}
	}

	// Whole-batch failures: empty batch and malformed JSON.
	resp, _ := postJSON(t, srv.URL+"/v1/batch", api.BatchRequest{})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty batch: status %d", resp.StatusCode)
	}
	bad, err := http.Post(srv.URL+"/v1/batch", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	bad.Body.Close()
	if bad.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed JSON: status %d", bad.StatusCode)
	}
}

func TestSelectEndpoint(t *testing.T) {
	srv := testServer(t)
	resp, out := postJSON(t, srv.URL+"/select", map[string]string{
		"query": `SELECT ?x ?y WHERE { ?x <married> ?y. }`,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status=%d out=%v", resp.StatusCode, out)
	}
	if out["count"].(float64) != 1 {
		t.Fatalf("select = %v", out)
	}
	resp, _ = postJSON(t, srv.URL+"/select", map[string]string{"query": "junk"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad query: status %d", resp.StatusCode)
	}
	// Parseable but invalid (focus variable unused) is still the
	// client's mistake, not a 500.
	resp, _ = postJSON(t, srv.URL+"/select", map[string]string{
		"query": `SELECT ?x WHERE { ?y <married> <Amy>. }`,
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("invalid query: status %d, want 400", resp.StatusCode)
	}
}

// TestStatusForSentinels: the status mapping works on error identity,
// not message substrings — including wrapped sentinels — and ErrNoIndex
// is a client error (the client picked an algorithm this server cannot
// run), not a 500.
func TestStatusForSentinels(t *testing.T) {
	srv := testServerOpts(t, lscr.Options{SkipIndex: true})
	cases := []struct {
		name string
		body api.QueryRequest
		want int
	}{
		{"ins without index", api.QueryRequest{Source: "C", Target: "P", Constraint: testConstraint, Algorithm: "ins"}, http.StatusBadRequest},
		{"uis still works", api.QueryRequest{Source: "C", Target: "P", Constraint: testConstraint, Algorithm: "uis"}, http.StatusOK},
		{"unknown vertex", api.QueryRequest{Source: "nope", Target: "P", Constraint: testConstraint, Algorithm: "uis"}, http.StatusBadRequest},
		{"unknown label", api.QueryRequest{Source: "C", Target: "P", Labels: []string{"bogus"}, Constraint: testConstraint, Algorithm: "uis"}, http.StatusBadRequest},
		{"syntax error", api.QueryRequest{Source: "C", Target: "P", Constraint: "SELECT garbage", Algorithm: "uis"}, http.StatusBadRequest},
		{"invalid constraint", api.QueryRequest{Source: "C", Target: "P",
			Constraint: `SELECT ?x WHERE { ?y <married> <Amy>. }`, Algorithm: "uis"}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		resp, out := postJSON(t, srv.URL+"/v1/query", tc.body)
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d (%v)", tc.name, resp.StatusCode, tc.want, out)
		}
	}
}

// TestBodyLimits: every endpoint rejects an oversized body instead of
// buffering it.
func TestBodyLimits(t *testing.T) {
	srv := testServer(t)
	huge := `{"source":"C","target":"P","constraint":"` +
		strings.Repeat("x", MaxQueryBody+1024) + `"}`
	for _, ep := range []string{"/v1/query", "/select"} {
		resp, err := http.Post(srv.URL+ep, "application/json", strings.NewReader(huge))
		if err != nil {
			t.Fatalf("%s: %v", ep, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: oversized body answered %d, want 400", ep, resp.StatusCode)
		}
	}
}

// TestHealthzCacheStats: /healthz surfaces the constraint cache
// counters that /v1/query traffic drives.
func TestHealthzCacheStats(t *testing.T) {
	srv := testServer(t)
	for i := 0; i < 3; i++ {
		resp, _ := postJSON(t, srv.URL+"/v1/query", api.QueryRequest{
			Source: "C", Target: "P", Constraint: testConstraint,
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("query %d: status %d", i, resp.StatusCode)
		}
	}
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out api.Health
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if !out.Cache.Enabled || out.Cache.Misses != 1 || out.Cache.Hits != 2 || out.Cache.Entries != 1 {
		t.Fatalf("cache stats = %+v", out.Cache)
	}
}
