package lscr

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"lscr/internal/graph"
	core "lscr/internal/lscr"
	"lscr/internal/pattern"
)

// Request is one LSCR query Q = (s, t, L, S) in terms of names. A
// request with one constraint runs the selected single-constraint
// Algorithm (INS by default); a request with several constraints — or
// with Algorithm set to Conjunctive — runs the generalised conjunctive
// search, which requires a path passing, for every constraint, some
// vertex satisfying it.
type Request struct {
	// Source and Target are vertex names.
	Source, Target string
	// Labels is the label constraint; empty means "all labels".
	Labels []string
	// Constraint is the single substructure constraint (a SPARQL SELECT
	// with one projected variable) — shorthand for a one-element
	// Constraints. Setting both fields is an error.
	Constraint string
	// Constraints lists the substructure constraints. One constraint
	// selects the single-constraint algorithms; several (at most
	// MaxConstraints) select the conjunctive search.
	Constraints []string
	// Algorithm picks the strategy for single-constraint requests; the
	// zero value is INS. Conjunctive forces the conjunctive search even
	// for one constraint. Multi-constraint requests run conjunctively:
	// leave Algorithm zero or set it to Conjunctive explicitly.
	Algorithm Algorithm
	// WantWitness also returns, for a true answer, a concrete witness
	// path with the satisfying vertex per constraint.
	WantWitness bool
	// WantTrace records the search tree of Definition 3.2 and returns
	// it rendered as Graphviz DOT. Not supported for conjunctive
	// requests.
	WantTrace bool
	// Timeout, when positive, bounds this request: the context passed
	// to Query is additionally limited to Timeout, so the search aborts
	// with context.DeadlineExceeded once it expires.
	Timeout time.Duration
}

// MaxConstraints bounds a conjunctive request's constraint count.
const MaxConstraints = core.MaxMultiConstraints

// Witness certifies a true answer: a concrete Source→Target walk whose
// labels all satisfy the label constraint, plus — per constraint, in
// request order — a walk vertex satisfying it. For the paper's
// crime-detection scenario this is the evidence chain itself.
type Witness struct {
	Hops []PathHop `json:"hops"`
	// SatisfiedBy[i] is the walk vertex satisfying the i'th constraint.
	SatisfiedBy []string `json:"satisfied_by"`
}

// String renders the walk as "a -[l]-> b -[m]-> c".
func (w *Witness) String() string {
	var b strings.Builder
	if len(w.Hops) == 0 {
		if len(w.SatisfiedBy) > 0 {
			return w.SatisfiedBy[0]
		}
		return ""
	}
	b.WriteString(w.Hops[0].From)
	for _, h := range w.Hops {
		fmt.Fprintf(&b, " -[%s]-> %s", h.Label, h.To)
	}
	return b.String()
}

// PathHop is one edge of a witness path, in vertex/label names.
type PathHop struct {
	From  string `json:"from"`
	Label string `json:"label"`
	To    string `json:"to"`
}

// Response is a query answer.
type Response struct {
	Reachable bool
	// Stats carries the paper's per-query evaluation measures.
	Stats Stats
	// Elapsed is the search time. It excludes name resolution, constraint
	// parsing and compilation, and witness reconstruction, but on a
	// constraint-cache miss under UIS* or INS it includes the first
	// enumeration of V(S,G), which runs lazily inside the timed interval.
	// It is 0 when a constraint names an entity absent from the KG: the
	// answer is then false and no search runs.
	Elapsed time.Duration
	// SatisfyingVertices is |V(S,G)| as computed by the engine, 0 under
	// UIS* and INS for a constraint naming an absent entity; the
	// algorithms that evaluate the constraint lazily (UIS and the
	// conjunctive search) report -1.
	SatisfyingVertices int
	// Algorithm is the strategy that actually ran (Conjunctive for
	// multi-constraint requests).
	Algorithm Algorithm
	// Witness is set for true answers when the request asked for one.
	Witness *Witness
	// TraceDOT is the recorded search tree rendered as a Graphviz
	// digraph, when the request asked for one and a search ran.
	TraceDOT string
}

// interruptFrom derives the core layer's poll function from ctx. A
// context that can never be cancelled — one whose Done returns nil,
// like context.Background() and context.TODO() — yields a nil poll
// function, which keeps the search loops on their zero-overhead path.
//
// Deadlines are additionally checked against the clock, not just the
// Done channel: closing Done relies on a runtime timer getting
// scheduled, which on a saturated single-core host can lag ~10 ms
// behind expiry — long enough for a short query to finish and defeat
// a tight per-request budget.
func interruptFrom(ctx context.Context) func() error {
	if ctx == nil || ctx.Done() == nil {
		return nil
	}
	deadline, hasDeadline := ctx.Deadline()
	return func() error {
		select {
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
		if hasDeadline && !time.Now().Before(deadline) {
			return context.DeadlineExceeded
		}
		return nil
	}
}

// Query answers req, honouring ctx: cancellation or deadline expiry
// aborts the search mid-flight (the hot loops poll every few thousand
// edge expansions) and returns ctx.Err(). A non-cancellable context —
// context.Background(), context.TODO(), or any context whose Done
// channel is nil — skips the poll entirely at zero overhead; a
// cancellable context that never fires answers bit-identically.
// Query is safe for concurrent use, like every read path of the
// Engine; it resolves against the epoch current when it starts, so a
// concurrent Apply or compaction never changes an in-flight answer.
func (e *Engine) Query(ctx context.Context, req Request) (Response, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if req.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, req.Timeout)
		defer cancel()
	}
	itr := interruptFrom(ctx)
	if itr != nil {
		if err := itr(); err != nil {
			return Response{}, err
		}
	}
	// The epoch is loaded exactly once: graph view, index, caches and
	// name resolution all come from this snapshot for the whole query.
	return e.current().query(req, itr)
}

// query is the one request path behind every request shape: it
// validates the shape, compiles the constraints, and runs and answers
// the selected search. Nothing compiles before the shape is valid, so
// whether a request is rejected never depends on the names the KG holds
// and a rejected request leaves the constraint cache alone.
func (ep *epoch) query(req Request, itr func() error) (Response, error) {
	g := ep.kg.g
	// Constraint is shorthand for a one-element Constraints.
	texts := req.Constraints
	var one [1]string
	if req.Constraint != "" {
		if len(texts) > 0 {
			return Response{}, fmt.Errorf("%w: both Constraint and Constraints are set", ErrInvalidRequest)
		}
		one[0] = req.Constraint
		texts = one[:]
	}
	cq, err := ep.resolveEndpoints(req.Source, req.Target, req.Labels)
	if err != nil {
		return Response{}, err
	}
	cq.Interrupt = itr
	alg, k := req.Algorithm, len(texts)
	if alg == Conjunctive || k > 1 {
		// The zero Algorithm (INS) on a multi-constraint request means
		// "the caller did not pick": the conjunctive search is the only
		// strategy for conjunctions. An explicit single-constraint choice
		// is a contradiction worth reporting.
		switch {
		case req.WantTrace:
			return Response{}, fmt.Errorf("%w: trace is not supported for conjunctive requests", ErrInvalidRequest)
		case alg != Conjunctive && alg != INS:
			return Response{}, fmt.Errorf("%w: algorithm %v cannot answer a %d-constraint conjunction",
				ErrInvalidRequest, alg, k)
		case k == 0:
			return Response{}, ErrNoConstraints
		case k > MaxConstraints:
			return Response{}, fmt.Errorf("%w: %d > %d", ErrTooManyConstraints, k, MaxConstraints)
		}
		alg = Conjunctive
	} else {
		switch {
		case alg != INS && alg != UIS && alg != UISStar:
			return Response{}, fmt.Errorf("%w %v", ErrUnknownAlgorithm, alg)
		case alg == INS && ep.idx == nil:
			return Response{}, ErrNoIndex
		case k != 1:
			return Response{}, fmt.Errorf("%w: algorithm %v takes exactly one constraint, got %d",
				ErrInvalidRequest, alg, k)
		}
	}

	var ccs [MaxConstraints]*compiledConstraint
	for i, text := range texts {
		if ccs[i], err = ep.compileConstraint(text); err != nil {
			return Response{}, err
		}
	}
	if itr != nil {
		// Compilation may have been slow; honour a deadline that fired
		// during it before starting the search.
		if err := itr(); err != nil {
			return Response{}, err
		}
	}
	// UIS and the conjunctive search evaluate their constraints lazily
	// and report -1; UIS* and INS report |V(S,G)|.
	resp := Response{Algorithm: alg, SatisfyingVertices: -1}
	if alg == INS || alg == UISStar {
		resp.SatisfyingVertices = 0
	}
	for _, cc := range ccs[:k] {
		if !cc.sat {
			// The constraint references entities absent from the KG:
			// V(S,G) is empty and the answer is false without searching.
			return resp, nil
		}
	}

	// tr stays a nil interface unless a trace is wanted: a typed-nil
	// *SearchTree would reach the algorithm as a non-nil Tracer.
	var (
		tree *core.SearchTree
		tr   core.Tracer
		mw   *core.MultiWitness
	)
	if req.WantTrace {
		tree = &core.SearchTree{}
		tr = tree
	}
	cq.Constraint = ccs[0].cons
	start := time.Now()
	switch alg {
	case UIS:
		resp.Reachable, resp.Stats, err = core.UISTraced(g, cq, tr)
	case UISStar:
		vs := ccs[0].vertexSet(g)
		resp.SatisfyingVertices = len(vs)
		resp.Reachable, resp.Stats, err = core.UISStarTraced(g, cq, vs, tr)
	case INS:
		vs := ccs[0].vertexSet(g)
		resp.SatisfyingVertices = len(vs)
		resp.Reachable, resp.Stats, err = core.INSTraced(g, ep.idx, cq, vs, tr)
	case Conjunctive:
		var cons [MaxConstraints]*pattern.Constraint
		for i, cc := range ccs[:k] {
			cons[i] = cc.cons
		}
		mq := core.MultiQuery{Source: cq.Source, Target: cq.Target, Labels: cq.Labels,
			Constraints: cons[:k], Interrupt: itr}
		if req.WantWitness {
			resp.Reachable, mw, resp.Stats, err = core.UISMultiWitness(g, mq)
		} else {
			resp.Reachable, resp.Stats, err = core.UISMulti(g, mq)
		}
	}
	if err != nil {
		return Response{}, err
	}
	resp.Elapsed = time.Since(start)

	if tree != nil {
		var b strings.Builder
		if err := tree.WriteDOT(&b, alg.String(), g.VertexName); err != nil {
			return Response{}, err
		}
		resp.TraceDOT = b.String()
	}
	if !req.WantWitness || !resp.Reachable {
		return resp, nil
	}
	// The conjunctive search reads its witness back from its own walk;
	// the single-constraint searches name only the satisfying vertex.
	if mw == nil {
		w, found := core.FindWitness(g, cq.Source, cq.Target, resp.Stats.Satisfying, cq.Labels)
		if !found {
			// Cannot happen for a sound algorithm; fail loudly rather
			// than fabricate evidence.
			return resp, fmt.Errorf("lscr: internal error: no witness for a true answer")
		}
		mw = &core.MultiWitness{Hops: w.Hops, SatisfiedBy: []graph.VertexID{w.Satisfying}}
	}
	resp.Witness = &Witness{Hops: pathHops(g, mw.Hops), SatisfiedBy: make([]string, len(mw.SatisfiedBy))}
	for i, v := range mw.SatisfiedBy {
		resp.Witness.SatisfiedBy[i] = g.VertexName(v)
	}
	return resp, nil
}

// pathHops names a witness walk's hops.
func pathHops(g *graph.Graph, hops []core.Hop) (out []PathHop) {
	for _, h := range hops {
		out = append(out, PathHop{From: g.VertexName(h.From), Label: g.LabelName(h.Label), To: g.VertexName(h.To)})
	}
	return out
}

// BatchOptions configures QueryBatch.
type BatchOptions struct {
	// Concurrency bounds the worker goroutines; 0 means GOMAXPROCS.
	// The fan-out is additionally clamped to the batch length.
	Concurrency int
}

// QueryOutcome pairs one request of a QueryBatch call with its answer.
// Exactly one of Err or a meaningful Response is set per entry.
type QueryOutcome struct {
	Response Response
	Err      error
}

// QueryBatch answers every request of reqs over a bounded worker pool,
// returning outcomes in request order; a failing request records its
// error in its own slot without affecting the others. Answers are
// identical to calling Query once per request serially, and repeated
// constraint texts compile once via the engine's constraint cache.
//
// Cancelling ctx stops the batch promptly: requests already running
// abort mid-search, and slots not yet scheduled record ctx.Err()
// without running at all.
func (e *Engine) QueryBatch(ctx context.Context, reqs []Request, opts BatchOptions) []QueryOutcome {
	if ctx == nil {
		ctx = context.Background()
	}
	out := make([]QueryOutcome, len(reqs))
	if len(reqs) == 0 {
		return out
	}
	concurrency := opts.Concurrency
	if concurrency <= 0 {
		concurrency = runtime.GOMAXPROCS(0)
	}
	if concurrency > len(reqs) {
		concurrency = len(reqs)
	}
	run := func(i int) {
		if err := ctx.Err(); err != nil {
			// The batch was cancelled before this slot was scheduled.
			out[i].Err = err
			return
		}
		out[i].Response, out[i].Err = e.Query(ctx, reqs[i])
	}
	if concurrency == 1 {
		for i := range reqs {
			run(i)
		}
		return out
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				run(i)
			}
		}()
	}
	wg.Wait()
	return out
}
