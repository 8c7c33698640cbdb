package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lscr"
	"lscr/api"
	"lscr/internal/failpoint"
)

// admissionServer mounts the handler with a tiny admission gate so a
// handful of slow requests saturate it.
func admissionServer(t *testing.T, o AdmissionOptions) *httptest.Server {
	t.Helper()
	kg, err := lscr.Load(strings.NewReader(testKG))
	if err != nil {
		t.Fatal(err)
	}
	eng := lscr.NewEngine(kg, lscr.Options{})
	srv := httptest.NewServer(New(eng, kg, WithAdmission(o)))
	t.Cleanup(srv.Close)
	return srv
}

func queryBody(t *testing.T) []byte {
	t.Helper()
	raw, err := json.Marshal(api.QueryRequest{
		Source: "C", Target: "P", Constraints: []string{testConstraint},
	})
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestAdmissionShedsUnderSaturation floods a 1-inflight/1-queue server
// with slow queries (via a delay failpoint) and requires that the
// overflow is shed as 429 with an integer-seconds Retry-After, while
// admitted requests still answer 200.
func TestAdmissionShedsUnderSaturation(t *testing.T) {
	if err := failpoint.Set(FPServe, "delay=100ms"); err != nil {
		t.Fatal(err)
	}
	defer failpoint.DisarmAll()
	srv := admissionServer(t, AdmissionOptions{
		MaxInflight: 1, MaxQueue: 1, QueueWait: 20 * time.Millisecond, RetryAfter: 2 * time.Second,
	})
	body := queryBody(t)

	const n = 12
	var ok, shed atomic.Int64
	var retryAfter atomic.Value
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(srv.URL+"/v1/query", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			switch resp.StatusCode {
			case http.StatusOK:
				ok.Add(1)
			case http.StatusTooManyRequests:
				shed.Add(1)
				retryAfter.Store(resp.Header.Get("Retry-After"))
			default:
				t.Errorf("unexpected status %d", resp.StatusCode)
			}
		}()
	}
	wg.Wait()
	if ok.Load() == 0 {
		t.Fatal("no request was admitted")
	}
	if shed.Load() == 0 {
		t.Fatal("no request was shed despite 12x saturation of a 1-slot gate")
	}
	if ra, _ := retryAfter.Load().(string); ra != "2" {
		t.Fatalf("Retry-After = %q, want %q", ra, "2")
	}

	// The shed/admitted counters must be visible on /healthz, which
	// itself must answer even while the gate is saturated.
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h api.Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !h.Admission.Enabled || h.Admission.MaxInflight != 1 {
		t.Fatalf("admission stats = %+v", h.Admission)
	}
	if h.Admission.Shed != shed.Load() || h.Admission.Admitted != ok.Load() {
		t.Fatalf("healthz admission counters %+v, want shed=%d admitted=%d",
			h.Admission, shed.Load(), ok.Load())
	}
}

// TestAdmissionHealthzUngated holds the only inflight slot hostage and
// checks /healthz still answers: probes must see a saturated server.
func TestAdmissionHealthzUngated(t *testing.T) {
	if err := failpoint.Set(FPServe, "delay=300ms"); err != nil {
		t.Fatal(err)
	}
	defer failpoint.DisarmAll()
	srv := admissionServer(t, AdmissionOptions{MaxInflight: 1, MaxQueue: 1})
	body := queryBody(t)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp, err := http.Post(srv.URL+"/v1/query", "application/json", bytes.NewReader(body))
		if err == nil {
			resp.Body.Close()
		}
	}()
	time.Sleep(50 * time.Millisecond) // let the slow query take the slot
	done := make(chan struct{})
	go func() {
		defer close(done)
		resp, err := http.Get(srv.URL + "/healthz")
		if err != nil {
			t.Error(err)
			return
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("healthz = %d while saturated", resp.StatusCode)
		}
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("healthz blocked behind the admission gate")
	}
	wg.Wait()
}

// TestAdmissionBudgetHeader sends a query whose X-LSCR-Budget-MS is
// far smaller than the injected serve delay and requires a 504: the
// budget must become the request's context deadline.
func TestAdmissionBudgetHeader(t *testing.T) {
	srv := admissionServer(t, AdmissionOptions{MaxInflight: 4})
	raw, err := json.Marshal(api.QueryRequest{
		Source: "C", Target: "P", Constraints: []string{testConstraint},
		TimeoutMS: 10_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest("POST", srv.URL+"/v1/query", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(api.BudgetHeader, "25")
	if err := failpoint.Set(FPServe, "delay=200ms"); err != nil {
		t.Fatal(err)
	}
	defer failpoint.DisarmAll()
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504 from budget header", resp.StatusCode)
	}
}

// TestAdmissionDisabledPassesThrough checks MaxInflight <= 0 leaves the
// handler ungated and /healthz reports admission disabled.
func TestAdmissionDisabledPassesThrough(t *testing.T) {
	srv := admissionServer(t, AdmissionOptions{MaxInflight: 0})
	resp, out := postJSON(t, srv.URL+"/v1/query", api.QueryRequest{
		Source: "C", Target: "P", Constraints: []string{testConstraint},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d body=%v", resp.StatusCode, out)
	}
	hr, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h api.Health
	if err := json.NewDecoder(hr.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if h.Admission.Enabled {
		t.Fatalf("admission reported enabled: %+v", h.Admission)
	}
}

// TestAdmissionPoisonedHealthz poisons a persistent engine through a
// WAL failpoint and checks /healthz flips to degraded with the cause,
// /v1/mutate answers 503 + Retry-After, and queries still answer.
func TestAdmissionPoisonedHealthz(t *testing.T) {
	dir := t.TempDir()
	kg, err := lscr.Load(strings.NewReader(testKG))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := lscr.Create(dir, kg, lscr.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	srv := httptest.NewServer(New(eng, kg, WithAdmission(AdmissionOptions{MaxInflight: 4})))
	t.Cleanup(srv.Close)

	if err := failpoint.Set("wal-append", "error"); err != nil {
		t.Fatal(err)
	}
	mutate := func() *http.Response {
		raw, _ := json.Marshal(api.MutateRequest{Mutations: []lscr.Mutation{
			{Op: "add-edge", Subject: "C", Label: "apr", Object: "P"},
		}})
		resp, err := http.Post(srv.URL+"/v1/mutate", "application/json", bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}
	first := mutate()
	failpoint.DisarmAll()
	if first.StatusCode == http.StatusOK {
		t.Fatal("mutation succeeded through an injected WAL error")
	}
	second := mutate()
	if second.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-poison mutate = %d, want 503", second.StatusCode)
	}
	if ra := second.Header.Get("Retry-After"); ra == "" {
		t.Fatal("503 carried no Retry-After")
	}

	hr, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h api.Health
	if err := json.NewDecoder(hr.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if h.Status != "degraded" || h.Poisoned == "" {
		t.Fatalf("healthz after poison = status %q poisoned %q", h.Status, h.Poisoned)
	}

	// Reads keep working from the last published epoch.
	qr, out := postJSON(t, srv.URL+"/v1/query", api.QueryRequest{
		Source: "C", Target: "P", Constraints: []string{testConstraint},
	})
	if qr.StatusCode != http.StatusOK {
		t.Fatalf("query on poisoned engine = %d body=%v", qr.StatusCode, out)
	}
}
