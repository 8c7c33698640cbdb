// Package client is the typed Go client of the lscrd /v1 HTTP API.
//
//	c := client.New("http://localhost:8080")
//	resp, err := c.Query(ctx, api.QueryRequest{
//		Source: "SuspectC", Target: "SuspectP",
//		Constraint: `SELECT ?x WHERE { ?x <married-to> <Amy>. }`,
//	})
//
// Every call takes a context: cancelling it aborts the HTTP request,
// which in turn cancels the search server-side (lscrd propagates the
// request context into the engine). Non-2xx replies surface as
// *APIError carrying the HTTP status and the server's message.
//
// Idempotent reads (Query, Batch, Health, Replicate, Segment) are
// retried on transient transport errors, overload shedding (429) and
// gateway unavailability (502/503) with jittered exponential backoff —
// the right behaviour against both a single restarting lscrd and the
// cluster gateway, whose 503 means "no replica eligible right now".
// A Retry-After hint on the reply raises the next backoff sleep, and
// the total time spent sleeping is capped by the retry budget
// (WithRetryBudget), so a shedding cluster slows clients down instead
// of being hammered, without parking them forever. Mutate is NEVER
// auto-retried: a mutation request whose reply was lost may have
// committed, and blindly re-sending it would double-apply the batch.
// Use WithRetry to tune or disable the policy.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"time"

	"lscr"
	"lscr/api"
)

// Retry defaults: up to DefaultRetryAttempts tries per idempotent read,
// with full-jitter backoff starting at DefaultRetryBackoff and doubling
// per attempt, spending at most DefaultRetryBudget waiting between
// attempts across the whole call.
const (
	DefaultRetryAttempts = 3
	DefaultRetryBackoff  = 25 * time.Millisecond
	DefaultRetryBudget   = 2 * time.Second
)

// Client talks to one lscrd server (or the cluster gateway, which
// speaks the same /v1 contract). It is safe for concurrent use.
type Client struct {
	base     string
	hc       *http.Client
	attempts int
	backoff  time.Duration
	budget   time.Duration
}

// Option customises a Client.
type Option func(*Client)

// WithHTTPClient substitutes the underlying *http.Client (timeouts,
// transports, instrumentation). The default is http.DefaultClient; nil
// keeps it.
func WithHTTPClient(hc *http.Client) Option {
	return func(c *Client) {
		if hc != nil {
			c.hc = hc
		}
	}
}

// WithRetry tunes the idempotent-read retry policy: attempts is the
// total number of tries (1 disables retries), backoff the first sleep
// of the jittered exponential schedule. Mutate stays single-try
// regardless.
func WithRetry(attempts int, backoff time.Duration) Option {
	return func(c *Client) {
		if attempts < 1 {
			attempts = 1
		}
		c.attempts = attempts
		c.backoff = backoff
	}
}

// WithRetryBudget caps the total time one call may spend sleeping
// between retry attempts — the Retry-After hint of an overloaded
// server (429/503) is honoured, but never past this budget, so a
// shedding cluster cannot park a client indefinitely. Negative means
// unlimited; the default is DefaultRetryBudget.
func WithRetryBudget(d time.Duration) Option {
	return func(c *Client) { c.budget = d }
}

// New builds a client for the server at baseURL (scheme + host, with
// or without a trailing slash).
func New(baseURL string, opts ...Option) *Client {
	c := &Client{
		base:     strings.TrimRight(baseURL, "/"),
		hc:       http.DefaultClient,
		attempts: DefaultRetryAttempts,
		backoff:  DefaultRetryBackoff,
		budget:   DefaultRetryBudget,
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// APIError is a non-2xx reply from the server.
type APIError struct {
	// StatusCode is the HTTP status.
	StatusCode int
	// Message is the server's error text.
	Message string
	// RetryAfter is the server's Retry-After hint (zero when absent):
	// an overloaded (429) or temporarily unavailable (503) server says
	// when it is worth coming back.
	RetryAfter time.Duration
}

func (e *APIError) Error() string {
	return fmt.Sprintf("lscrd: %d %s: %s", e.StatusCode, http.StatusText(e.StatusCode), e.Message)
}

// Query answers one request via POST /v1/query.
func (c *Client) Query(ctx context.Context, req api.QueryRequest) (api.QueryResponse, error) {
	var out api.QueryResponse
	err := c.post(ctx, "/"+api.Version+"/query", req, &out, true)
	return out, err
}

// Batch answers many requests via POST /v1/batch.
func (c *Client) Batch(ctx context.Context, req api.BatchRequest) (api.BatchResponse, error) {
	var out api.BatchResponse
	err := c.post(ctx, "/"+api.Version+"/batch", req, &out, true)
	return out, err
}

// Mutate commits one atomic mutation batch via POST /v1/mutate. The
// server applies either the whole batch or none of it: a validation
// error (unknown name or absent edge in a delete, malformed op), a
// connection dropped mid-request, or a read-only server leaves the
// graph untouched.
//
// Mutate is never auto-retried: a transport error after the request
// was sent leaves the commit status unknown, and re-sending a batch
// that did commit would apply it twice. Callers who need to resolve
// the ambiguity compare the engine epoch (Health) before re-issuing.
func (c *Client) Mutate(ctx context.Context, muts []lscr.Mutation) (lscr.ApplyResult, error) {
	var out lscr.ApplyResult
	err := c.post(ctx, "/"+api.Version+"/mutate", api.MutateRequest{Mutations: muts}, &out, false)
	return out, err
}

// Health reads GET /healthz.
func (c *Client) Health(ctx context.Context) (api.Health, error) {
	var out api.Health
	err := c.get(ctx, "/healthz", &out)
	return out, err
}

// Replicate reads the replication feed above the from cursor via GET
// /v1/replicate, long-polling up to wait server-side when the cursor
// is current. A cursor below the writer's WAL horizon surfaces as an
// *APIError with StatusGone: re-bootstrap from Segment.
func (c *Client) Replicate(ctx context.Context, from uint64, wait time.Duration) (api.ReplicateResponse, error) {
	var out api.ReplicateResponse
	path := fmt.Sprintf("/%s/replicate?from=%d&wait_ms=%d", api.Version, from, wait.Milliseconds())
	err := c.get(ctx, path, &out)
	return out, err
}

// Segment fetches the newest sealed segment image via GET /v1/segment
// and returns its bytes plus its base epoch — everything a follower
// needs to bootstrap (lscr.OpenReplicaSegment, then tail Replicate
// from the epoch).
func (c *Client) Segment(ctx context.Context) ([]byte, uint64, error) {
	var (
		data []byte
		base uint64
	)
	err := c.withRetry(ctx, true, func() error {
		hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/"+api.Version+"/segment", nil)
		if err != nil {
			return err
		}
		resp, err := c.hc.Do(hreq)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode/100 != 2 {
			return readAPIError(resp)
		}
		base, err = strconv.ParseUint(resp.Header.Get(api.SegmentEpochHeader), 10, 64)
		if err != nil {
			return fmt.Errorf("lscrd: bad %s header: %v", api.SegmentEpochHeader, err)
		}
		data, err = io.ReadAll(resp.Body)
		return err
	})
	if err != nil {
		return nil, 0, err
	}
	return data, base, nil
}

func (c *Client) post(ctx context.Context, path string, body, out any, idempotent bool) error {
	raw, err := json.Marshal(body)
	if err != nil {
		return err
	}
	return c.withRetry(ctx, idempotent, func() error {
		// A fresh request per attempt: the body reader of a failed send
		// may already be consumed.
		hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(raw))
		if err != nil {
			return err
		}
		hreq.Header.Set("Content-Type", "application/json")
		return c.do(hreq, out)
	})
}

func (c *Client) get(ctx context.Context, path string, out any) error {
	return c.withRetry(ctx, true, func() error {
		hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
		if err != nil {
			return err
		}
		return c.do(hreq, out)
	})
}

// withRetry runs one attempt of call, re-running it on retryable
// failures (transient transport errors, 429/502/503) when idempotent —
// with full-jitter exponential backoff between attempts, raised to the
// server's Retry-After hint when one came back — and exactly once
// otherwise. The caller's context bounds the whole schedule: its
// cancellation is never retried and cuts a backoff sleep short. The
// retry budget bounds the total time spent sleeping: a schedule whose
// next sleep would overrun it returns the last error instead.
func (c *Client) withRetry(ctx context.Context, idempotent bool, call func() error) error {
	attempts := 1
	if idempotent {
		attempts = c.attempts
	}
	var (
		err   error
		slept time.Duration
	)
	for try := 0; try < attempts; try++ {
		if try > 0 {
			d := jittered(c.backoff << (try - 1))
			// An overloaded server's Retry-After hint wins over the
			// backoff schedule — retrying sooner would only be shed
			// again — but never past the retry budget.
			if ra := retryAfterOf(err); ra > d {
				d = ra
			}
			if c.budget >= 0 && slept+d > c.budget {
				return err
			}
			slept += d
			if !sleepCtx(ctx, d) {
				return err
			}
		}
		if err = call(); err == nil {
			return nil
		}
		if ctx.Err() != nil || !retryable(err) {
			return err
		}
	}
	return err
}

// retryable classifies one failed attempt: overload shedding (429),
// gateway unavailability (502/503) and transport-level errors are
// worth re-trying; every other API error is a definitive answer, and a
// cancelled or expired context is the caller's own signal.
func retryable(err error) bool {
	var apiErr *APIError
	if errors.As(err, &apiErr) {
		return apiErr.StatusCode == http.StatusTooManyRequests ||
			apiErr.StatusCode == http.StatusBadGateway ||
			apiErr.StatusCode == http.StatusServiceUnavailable
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	return true
}

// retryAfterOf extracts the server's Retry-After hint from a failed
// attempt, zero when there is none.
func retryAfterOf(err error) time.Duration {
	var apiErr *APIError
	if errors.As(err, &apiErr) {
		return apiErr.RetryAfter
	}
	return 0
}

// jittered draws a uniformly random duration in [d/2, d] — full jitter
// keeps retries from synchronising across clients.
func jittered(d time.Duration) time.Duration {
	if d <= 0 {
		return 0
	}
	return d/2 + time.Duration(rand.Int63n(int64(d/2)+1))
}

// sleepCtx sleeps for d, reporting false when ctx expired first.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return ctx.Err() == nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

func (c *Client) do(hreq *http.Request, out any) error {
	resp, err := c.hc.Do(hreq)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return readAPIError(resp)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// readAPIError drains a non-2xx reply into an *APIError. Error bodies
// are small; cap the read anyway so a broken server cannot make the
// client buffer garbage without bound.
func readAPIError(resp *http.Response) error {
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	var apiErr api.Error
	msg := strings.TrimSpace(string(raw))
	if json.Unmarshal(raw, &apiErr) == nil && apiErr.Error != "" {
		msg = apiErr.Error
	}
	out := &APIError{StatusCode: resp.StatusCode, Message: msg}
	// Retry-After in its integer-seconds form (the only form lscrd and
	// the gateway emit); HTTP-date values are ignored rather than
	// misparsed.
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		if secs, err := strconv.ParseInt(ra, 10, 64); err == nil && secs >= 0 {
			out.RetryAfter = time.Duration(secs) * time.Second
		}
	}
	return out
}
