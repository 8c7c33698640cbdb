package main

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"time"

	"lscr"
	"lscr/api"
	"lscr/client"
	"lscr/internal/cluster"
	"lscr/internal/graph"
	"lscr/internal/lubm"
	"lscr/server"
)

// workload fixes one of the four inputs. Sizes are constants so that a
// pass holds the same operations on every run of a seed.
type workload struct {
	name string
	why  string
	// universities sizes the LUBM graph, pool the number of pooled reads.
	universities, pool int
	// distinctTexts draws the pool with a different constraint text per
	// request (constraintPool) instead of the paper's five.
	distinctTexts bool
	mix           []kind
	// served routes reads and writes through client → gateway → server
	// on loopback instead of calling the engine in process.
	served bool
	// durable builds the engine with lscr.Create in a temp dir and
	// DurabilitySync, and reopens it for the final check.
	durable bool
	// concurrentWrites runs the writer beside the readers for the whole
	// window; otherwise writes follow the reads.
	concurrentWrites bool
}

var workloads = []workload{
	{
		name:         "embed-search",
		why:          "in-process Engine.Query on LUBM-10, 1200 pooled reads over the paper's five cached constraint texts, mixed algorithms: the search in internal/lscr is nearly all of the time, serving layers idle",
		universities: 10, pool: 1200,
		mix: searchMix,
	},
	{
		name:         "embed-constraint",
		why:          "same engine, 2048 distinct constraint texts and short searches: every request misses the constraint cache, so sparql compile and pattern matching take two thirds of the engine's time",
		universities: 10, pool: 2048,
		distinctTexts: true, mix: defaultMix,
	},
	{
		name:         "serve-small",
		why:          "client.Query through gateway and server on loopback over LUBM-1: at the median four fifths of the latency is HTTP, JSON and the gateway hop, not Engine.Query",
		universities: 1, pool: 1000,
		mix: defaultMix, served: true,
	},
	{
		name:         "write-mix",
		why:          "durable engine on LUBM-4, one writer applying fsynced 16-op batches beside readers: delta overlay, index maintenance, WAL, cold per-epoch constraint cache and background compactions",
		universities: 4, pool: 800,
		mix: searchMix, durable: true, concurrentWrites: true,
	},
}

func workloadByName(name string) (*workload, bool) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], true
		}
	}
	return nil, false
}

// answer is what a read returned, whichever path carried it.
type answer struct {
	reachable bool
	witnessed bool
}

// instance is one set-up of a workload: graph, engine, query pool and
// the workload's own read and write paths.
type instance struct {
	w    *workload
	seed int64
	base *graph.Graph // the generated graph, before any mutation
	eng  *lscr.Engine
	dir  string // data directory of a durable engine
	pool []query
	mut  *mutator

	stack *stack // serving stack of a served workload

	read  func(ctx context.Context, i int) (answer, error)
	apply func(ctx context.Context, muts []lscr.Mutation) error
}

// setUp builds everything a run needs: graph generation, engine and
// index build, oracle and pool generation, and for a served workload the
// listeners. Its wall time is setup_s. rec, when non-nil, is the span
// recorder the serving stack's middleware reports to.
func setUp(w *workload, seed int64, short bool, clients int, rec *recorder) (inst *instance, err error) {
	universities, poolSize := w.universities, w.pool
	if short {
		universities, poolSize = 1, 64
	}
	// The graph and the index are the same on every seed; the seed draws
	// the queries and the mutations. Landmark selection and graph layout
	// shift every latency by more than a regression bound, so letting
	// them vary with the seed would measure the draw, not the code.
	g := lubm.Generate(lubm.DefaultConfig(universities))
	inst = &instance{w: w, seed: seed, base: g}
	defer func() {
		if err != nil {
			inst.close()
		}
	}()

	opts := lscr.Options{}
	if w.durable {
		if inst.dir, err = os.MkdirTemp("", "lscr-bench-"); err != nil {
			return inst, err
		}
		opts.Durability = lscr.DurabilitySync
		if inst.eng, err = lscr.Create(inst.dir, lscr.FromGraph(g), opts); err != nil {
			return inst, fmt.Errorf("create store: %w", err)
		}
	} else {
		inst.eng = lscr.NewEngine(lscr.FromGraph(g), opts)
	}

	rng := rand.New(rand.NewSource(seed))
	gen := newGenerator(rng, g, newOracle(g), mutatedPredicates)
	if w.distinctTexts {
		inst.pool, err = gen.constraintPool(poolSize)
	} else {
		inst.pool, err = gen.searchPool(poolSize, w.mix)
	}
	if err != nil {
		return inst, err
	}
	inst.mut = newMutator(rng, g)

	inst.read = func(ctx context.Context, i int) (answer, error) {
		resp, err := inst.eng.Query(ctx, inst.pool[i].req)
		return answer{reachable: resp.Reachable, witnessed: resp.Witness != nil}, err
	}
	inst.apply = func(ctx context.Context, muts []lscr.Mutation) error {
		_, err := inst.eng.Apply(ctx, muts)
		return err
	}
	if w.served {
		if inst.stack, err = startStack(inst.eng, clients, rec); err != nil {
			return inst, err
		}
		wire := wireRequests(inst.pool)
		c := inst.stack.client
		inst.read = func(ctx context.Context, i int) (answer, error) {
			resp, err := c.Query(ctx, wire[i])
			return answer{reachable: resp.Reachable, witnessed: resp.Witness != nil}, err
		}
		inst.apply = func(ctx context.Context, muts []lscr.Mutation) error {
			_, err := c.Mutate(ctx, api.FromMutations(muts))
			return err
		}
	}
	return inst, nil
}

// close stops the listeners, closes the engine and removes its store.
func (inst *instance) close() {
	if inst.stack != nil {
		inst.stack.close()
	}
	if inst.eng != nil {
		_ = inst.eng.Close() // closing twice is harmless; verify already checked the first
	}
	if inst.dir != "" {
		_ = os.RemoveAll(inst.dir) // a leftover temp dir does not change any result
	}
}

// wireRequests converts the pool to the JSON shape the client sends.
func wireRequests(pool []query) []api.QueryRequest {
	wire := make([]api.QueryRequest, len(pool))
	for i, q := range pool {
		wire[i] = api.QueryRequest{
			Source:      q.req.Source,
			Target:      q.req.Target,
			Labels:      q.req.Labels,
			Constraint:  q.req.Constraint,
			Constraints: q.req.Constraints,
			Witness:     q.req.WantWitness,
		}
		if q.req.Algorithm != 0 {
			wire[i].Algorithm = api.AlgorithmName(q.req.Algorithm)
		}
	}
	return wire
}

// stack is the serving path mounted in process on loopback listeners:
// client → gateway (cluster.Coordinator with the writer as its one
// replica, default hedging) → server.New handler → engine.
type stack struct {
	servers []*http.Server
	co      *cluster.Coordinator
	client  *client.Client
}

// startStack mounts the serving path over eng. Every HTTP client keeps
// at most conns connections, one per benchmark client. With a recorder
// both handlers run inside span-recording middleware.
func startStack(eng *lscr.Engine, conns int, rec *recorder) (*stack, error) {
	s := &stack{}
	httpClient := func() *http.Client {
		return &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: conns, MaxConnsPerHost: conns}}
	}
	mount := func(name, parent string, h http.Handler) (string, error) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return "", err
		}
		if rec != nil {
			h = rec.middleware(name, parent, h)
		}
		srv := &http.Server{Handler: h}
		s.servers = append(s.servers, srv)
		go func() { _ = srv.Serve(ln) }() // returns ErrServerClosed once close shuts it down
		return "http://" + ln.Addr().String(), nil
	}
	writerURL, err := mount("server.serve", "gateway.serve", server.New(eng, eng.KG()))
	if err != nil {
		return nil, err
	}
	s.co = cluster.NewCoordinator(cluster.Config{
		Writer:     writerURL,
		Replicas:   []string{writerURL},
		HTTPClient: httpClient(),
		Logf:       func(string, ...any) {},
	})
	// The first probe runs before any read, so routing starts from a
	// known state on every run.
	s.co.ProbeNow(context.Background())
	s.co.Start()
	gatewayURL, err := mount("gateway.serve", "client.query", s.co)
	if err != nil {
		s.close()
		return nil, err
	}
	s.client = client.New(gatewayURL, client.WithHTTPClient(httpClient()))
	return s, nil
}

// close stops the probe loop and shuts both listeners down, waiting for
// their connections to end.
func (s *stack) close() {
	if s.co != nil {
		s.co.Close()
	}
	for _, srv := range s.servers {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		if err := srv.Shutdown(ctx); err != nil {
			_ = srv.Close() // connections that outlive the grace period are cut
		}
		cancel()
	}
}
