// Package api is the versioned wire contract of the lscrd HTTP
// service. Where the engine already has a JSON-tagged type for a
// message — lscr.Mutation, lscr.ApplyResult, lscr.ReplicationBatch,
// lscr.Witness, the /healthz stats — the contract is that type itself;
// this package adds only the request and reply envelopes around them
// and the query shapes whose wire form differs from lscr.Request and
// lscr.Response. The server (package lscr/server) and the typed client
// (package lscr/client) both build on these types, so they cannot
// drift apart.
package api

import (
	"fmt"
	"strings"
	"time"

	"lscr"
)

// Version is the API generation these types describe; it is also the
// path prefix of the endpoints (/v1/query, /v1/batch).
const Version = "v1"

// QueryRequest is the POST /v1/query body.
type QueryRequest struct {
	Source string   `json:"source"`
	Target string   `json:"target"`
	Labels []string `json:"labels,omitempty"`
	// Constraint is shorthand for a one-element Constraints; setting
	// both is an error.
	Constraint  string   `json:"constraint,omitempty"`
	Constraints []string `json:"constraints,omitempty"`
	// Algorithm is "ins" (default), "uis", "uisstar" or "conjunctive".
	Algorithm string `json:"algorithm,omitempty"`
	Witness   bool   `json:"witness,omitempty"`
	Trace     bool   `json:"trace,omitempty"`
	// TimeoutMS bounds this query server-side, in milliseconds; expiry
	// answers 504.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// QueryResponse is the POST /v1/query reply.
type QueryResponse struct {
	Reachable          bool          `json:"reachable"`
	ElapsedUS          int64         `json:"elapsed_us"`
	PassedVertices     int           `json:"passed_vertices"`
	SearchTreeNodes    int           `json:"search_tree_nodes"`
	SatisfyingVertices int           `json:"satisfying_vertices"`
	Algorithm          string        `json:"algorithm"`
	Witness            *lscr.Witness `json:"witness,omitempty"`
	TraceDOT           string        `json:"trace_dot,omitempty"`
}

// BatchRequest is the POST /v1/batch body. Concurrency 0 means all
// cores (the server clamps it to the cores it actually has).
type BatchRequest struct {
	Queries     []QueryRequest `json:"queries"`
	Concurrency int            `json:"concurrency,omitempty"`
}

// BatchItem is one /v1/batch result: either the query-response fields
// or a per-query error (a bad query does not fail its batch).
type BatchItem struct {
	QueryResponse
	Error string `json:"error,omitempty"`
}

// BatchResponse is the POST /v1/batch reply.
type BatchResponse struct {
	Results []BatchItem `json:"results"`
	Count   int         `json:"count"`
}

// MutateRequest is the POST /v1/mutate body; the reply is the
// lscr.ApplyResult of the commit, whose Epoch is the published
// snapshot: queries issued after the reply see the batch. The batch
// commits atomically: on any error (unknown name or absent edge in a
// delete, malformed mutation, client disconnect before the body
// arrived) nothing is applied.
type MutateRequest struct {
	Mutations []lscr.Mutation `json:"mutations"`
}

// ReplicateResponse is the GET /v1/replicate reply: the feed records
// above the requested cursor (empty when the cursor was current for the
// whole long-poll window) plus the writer's serving and durable epochs
// at reply time, which let a follower report its own lag.
type ReplicateResponse struct {
	From         uint64                  `json:"from"`
	Batches      []lscr.ReplicationBatch `json:"batches"`
	Epoch        uint64                  `json:"epoch"`
	DurableEpoch uint64                  `json:"durable_epoch"`
}

// SegmentEpochHeader carries the base epoch of the segment streamed by
// GET /v1/segment — the cursor a bootstrapping follower tails from.
const SegmentEpochHeader = "X-LSCR-Segment-Epoch"

// BudgetHeader carries the caller's remaining deadline budget in
// milliseconds. The gateway stamps it on relayed requests from its own
// context deadline, so a backend's admission queue and query both run
// under the time the end client actually has left.
const BudgetHeader = "X-LSCR-Budget-MS"

// AdmissionStats reports the server's admission gate on /healthz:
// bounded-inflight with a short wait queue; requests beyond both are
// shed with 429 + Retry-After.
type AdmissionStats struct {
	// Enabled is false when the server runs ungated (no WithAdmission);
	// all other fields are then zero.
	Enabled bool `json:"enabled"`
	// MaxInflight and MaxQueue are the configured bounds.
	MaxInflight int `json:"max_inflight,omitempty"`
	MaxQueue    int `json:"max_queue,omitempty"`
	// Inflight and Queued are point-in-time gauges.
	Inflight int64 `json:"inflight"`
	Queued   int64 `json:"queued"`
	// Admitted and Shed count requests since start.
	Admitted int64 `json:"admitted"`
	Shed     int64 `json:"shed"`
}

// ReplicaHealth is one backend's state as the cluster gateway sees it.
type ReplicaHealth struct {
	URL     string `json:"url"`
	Healthy bool   `json:"healthy"`
	// Breaker is "closed" (routable) or "open" (failed out, cooling
	// down).
	Breaker string `json:"breaker"`
	// Epoch is the backend's last observed serving epoch; Lag is the
	// writer's epoch minus it.
	Epoch uint64 `json:"epoch"`
	Lag   uint64 `json:"lag"`
	// LatencyUS is the EWMA of recent read latencies, in microseconds.
	LatencyUS int64  `json:"latency_us"`
	Error     string `json:"error,omitempty"`
	// Shedding reports that the backend recently answered 429 and is
	// being routed around until its Retry-After elapses.
	Shedding bool `json:"shedding,omitempty"`
	// Poisoned reports that the backend's /healthz carried a fail-stop
	// poison cause; the gateway fails mutations static while reads
	// continue on the followers.
	Poisoned bool `json:"poisoned,omitempty"`
}

// ClusterHealth is the gateway's GET /healthz reply.
type ClusterHealth struct {
	Status  string `json:"status"`
	Version string `json:"version"`
	API     string `json:"api"`
	// Role distinguishes the gateway's health shape from a single
	// engine's ("gateway").
	Role string `json:"role"`
	// Epoch is the cluster head: the writer's serving epoch.
	Epoch    uint64          `json:"epoch"`
	Writer   ReplicaHealth   `json:"writer"`
	Replicas []ReplicaHealth `json:"replicas"`
	// Sheds counts reads and mutations the gateway answered 429/503 for
	// because every eligible backend was shedding (or the writer was
	// poisoned); Inflight is the gateway's current hedged-read gauge.
	Sheds    int64 `json:"sheds"`
	Inflight int64 `json:"inflight"`
	// WriterPoisoned mirrors the writer's fail-stop state: mutations are
	// refused at the gateway while reads keep flowing to followers.
	WriterPoisoned bool `json:"writer_poisoned,omitempty"`
}

// Health is the GET /healthz reply.
type Health struct {
	Status   string          `json:"status"`
	Version  string          `json:"version"`
	API      string          `json:"api"`
	Vertices int             `json:"vertices"`
	Edges    int             `json:"edges"`
	Labels   int             `json:"labels"`
	Cache    lscr.CacheStats `json:"cache"`
	Epoch    lscr.EpochInfo  `json:"epoch"`
	// Maintenance reports incremental index maintenance: cumulative
	// counters plus the serving epoch's dirty-landmark count, consistent
	// with Epoch.
	Maintenance lscr.MaintStats `json:"maintenance"`
	// Index reports the serving local index's size by structure; absent
	// when the engine runs without an index.
	Index *lscr.IndexStats `json:"index,omitempty"`
	// Durability reports the persistence state: sealed-segment epoch,
	// WAL tail size and last-fsync time for a persistent engine
	// (lscrd -data), Persistent=false for an in-memory one.
	Durability lscr.DurabilityInfo `json:"durability"`
	// Poisoned carries the engine's fail-stop cause when a WAL/segment
	// write failure pinned it read-only (Status is then "degraded");
	// empty while healthy.
	Poisoned string `json:"poisoned,omitempty"`
	// Admission reports the load-shedding gate (zero-valued with
	// Enabled=false when the server runs ungated).
	Admission AdmissionStats `json:"admission"`
}

// Error is the body of every non-2xx reply.
type Error struct {
	Error string `json:"error"`
}

// ParseAlgorithm maps a wire algorithm name to the engine's enum.
func ParseAlgorithm(s string) (lscr.Algorithm, error) {
	switch strings.ToLower(s) {
	case "", "ins":
		return lscr.INS, nil
	case "uis":
		return lscr.UIS, nil
	case "uisstar", "uis*":
		return lscr.UISStar, nil
	case "conjunctive", "conj", "multi":
		return lscr.Conjunctive, nil
	}
	return 0, fmt.Errorf("unknown algorithm %q", s)
}

// AlgorithmName maps the engine's enum to its canonical wire name.
func AlgorithmName(a lscr.Algorithm) string {
	switch a {
	case lscr.INS:
		return "ins"
	case lscr.UIS:
		return "uis"
	case lscr.UISStar:
		return "uisstar"
	case lscr.Conjunctive:
		return "conjunctive"
	}
	return a.String()
}

// ToRequest converts the wire shape to the engine's Request.
func (r QueryRequest) ToRequest() (lscr.Request, error) {
	algo, err := ParseAlgorithm(r.Algorithm)
	if err != nil {
		return lscr.Request{}, err
	}
	return lscr.Request{
		Source:      r.Source,
		Target:      r.Target,
		Labels:      r.Labels,
		Constraint:  r.Constraint,
		Constraints: r.Constraints,
		Algorithm:   algo,
		WantWitness: r.Witness,
		WantTrace:   r.Trace,
		Timeout:     time.Duration(r.TimeoutMS) * time.Millisecond,
	}, nil
}

// FromMutations returns its argument: the wire shape of a mutation
// batch is the engine's.
func FromMutations(ms []lscr.Mutation) []lscr.Mutation { return ms }

// FromResponse converts the engine's Response to the wire shape.
func FromResponse(resp lscr.Response) QueryResponse {
	return QueryResponse{
		Reachable:          resp.Reachable,
		ElapsedUS:          resp.Elapsed.Microseconds(),
		PassedVertices:     resp.Stats.PassedVertices,
		SearchTreeNodes:    resp.Stats.SearchTreeNodes,
		SatisfyingVertices: resp.SatisfyingVertices,
		Algorithm:          AlgorithmName(resp.Algorithm),
		Witness:            resp.Witness,
		TraceDOT:           resp.TraceDOT,
	}
}
