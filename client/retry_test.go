package client_test

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"lscr"
	"lscr/api"
	"lscr/client"
)

// flakyServer answers path with failStatus for the first fail hits,
// then with the JSON body ok. It counts every hit.
func flakyServer(t *testing.T, fail int64, failStatus int, ok string) (*client.Client, *atomic.Int64) {
	t.Helper()
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) <= fail {
			http.Error(w, `{"error":"transient"}`, failStatus)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(ok))
	}))
	t.Cleanup(srv.Close)
	return client.New(srv.URL, client.WithRetry(3, time.Millisecond)), &hits
}

// TestClientRetryIdempotentRead: a read that hits transient gateway
// unavailability (503) is retried and succeeds within the attempt
// budget.
func TestClientRetryIdempotentRead(t *testing.T) {
	c, hits := flakyServer(t, 2, http.StatusServiceUnavailable, `{"reachable":true}`)
	resp, err := c.Query(context.Background(), api.QueryRequest{Source: "a", Target: "b"})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Reachable {
		t.Fatalf("resp = %+v", resp)
	}
	if got := hits.Load(); got != 3 {
		t.Fatalf("server saw %d requests, want 3", got)
	}
}

// TestClientRetryGivesUp: when every attempt fails transiently the last
// error surfaces after exactly the configured number of tries.
func TestClientRetryGivesUp(t *testing.T) {
	c, hits := flakyServer(t, 100, http.StatusBadGateway, `{}`)
	_, err := c.Query(context.Background(), api.QueryRequest{Source: "a", Target: "b"})
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusBadGateway {
		t.Fatalf("err = %v", err)
	}
	if got := hits.Load(); got != 3 {
		t.Fatalf("server saw %d requests, want 3", got)
	}
}

// TestClientNoRetryOnDefinitiveError: a 400 is an answer, not an
// outage — exactly one attempt.
func TestClientNoRetryOnDefinitiveError(t *testing.T) {
	c, hits := flakyServer(t, 100, http.StatusBadRequest, `{}`)
	_, err := c.Query(context.Background(), api.QueryRequest{Source: "a", Target: "b"})
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusBadRequest {
		t.Fatalf("err = %v", err)
	}
	if got := hits.Load(); got != 1 {
		t.Fatalf("server saw %d requests, want 1", got)
	}
}

// TestClientMutateNeverRetried: POST /v1/mutate is sent exactly once
// even when the reply is a retryable-looking 502 — a mutation whose
// reply was lost may have committed, and re-sending it could apply the
// batch twice.
func TestClientMutateNeverRetried(t *testing.T) {
	c, hits := flakyServer(t, 100, http.StatusBadGateway, `{}`)
	_, err := c.Mutate(context.Background(), []lscr.Mutation{
		{Op: "add-vertex", Subject: "v"},
	})
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusBadGateway {
		t.Fatalf("err = %v", err)
	}
	if got := hits.Load(); got != 1 {
		t.Fatalf("mutate was sent %d times, want exactly 1", got)
	}
}

// TestClientRetryTransportError: a connection-refused transport error
// is retried for reads (here: every attempt fails, and the loop still
// terminates with the transport error).
func TestClientRetryTransportError(t *testing.T) {
	srv := httptest.NewServer(http.NotFoundHandler())
	url := srv.URL
	srv.Close() // nothing listens there any more
	c := client.New(url, client.WithRetry(2, time.Millisecond))
	if _, err := c.Health(context.Background()); err == nil {
		t.Fatal("health against a dead server succeeded")
	}
}
