// Command lscrd serves LSCR queries over HTTP.
//
//	lscrd -data /var/lib/lscr -kg graph.nt -addr :8080
//
// The endpoints — /v1/query, /v1/batch, /v1/mutate, /select, /healthz
// and the replication feed — are implemented by package lscr/server;
// this command only provisions the engine and manages the listener
// lifecycle.
//
// With -data the engine is persistent: the first boot parses -kg,
// builds the index and seals both into an on-disk segment; every later
// boot mmaps the newest segment and replays the mutation WAL tail —
// near-instant restart, crash recovery included. /v1/mutate batches
// are WAL-logged (fsynced per batch unless -durability lazy) before
// they are acknowledged, and a clean shutdown re-seals so the next
// boot replays nothing. Without -data the engine is purely in-memory:
// the KG and index are built at startup (across all cores) and
// mutations do not survive the process.
//
// With -follow the process is a read replica instead: it bootstraps
// from the writer's newest sealed segment (GET /v1/segment), tails its
// WAL feed (GET /v1/replicate) through the engine's normal commit
// path, and serves the read-only /v1 surface — bit-identical answers
// to the writer at every replicated epoch. Put cmd/lscrgw in front to
// get one logical engine over the fleet.
//
// Request bodies are size-capped, the listener runs with read/write
// timeouts, in-flight requests drain gracefully on SIGINT/SIGTERM, and
// every search runs under the request's context so disconnected
// clients stop consuming CPU. With -max-inflight the /v1 query and
// mutate surface runs behind an admission gate (writer and follower
// modes alike): past -max-inflight executing plus -max-queue waiting
// requests, excess load is shed with 429 + Retry-After instead of an
// unbounded latency tail; /healthz is never gated so probes always see
// a saturated server.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"lscr"
	"lscr/internal/buildinfo"
	"lscr/internal/cluster"
	"lscr/server"
)

// Server limits: slow-client protection and the drain budget on
// shutdown. ReadTimeout bounds how long a client may dribble a body in;
// WriteTimeout bounds the whole response (generous — a batch can
// legitimately compute for a while); shutdownGrace bounds how long
// in-flight requests may run after SIGINT/SIGTERM.
const (
	readHeaderTimeout = 5 * time.Second
	readTimeout       = 30 * time.Second
	writeTimeout      = 2 * time.Minute
	idleTimeout       = 2 * time.Minute
	shutdownGrace     = 15 * time.Second
)

func main() {
	var (
		kgPath       = flag.String("kg", "", "path to the KG as N-Triples (required unless -data holds a store)")
		dataDir      = flag.String("data", "", "data directory: open the store there, or create one from -kg on first boot")
		durability   = flag.String("durability", "sync", "WAL fsync policy for -data: sync (per batch) or lazy")
		addr         = flag.String("addr", ":8080", "listen address")
		cacheSize    = flag.Int("cache", 0, "constraint-cache capacity (0 = default, negative = disabled)")
		compactAfter = flag.Int("compact-after", 0, "overlay ops before background compaction (0 = default, negative = manual only)")
		readonly     = flag.Bool("readonly", false, "disable /v1/mutate (403)")
		follow       = flag.String("follow", "", "follower mode: bootstrap from this writer URL and tail its WAL feed (read-only replica)")
		maxInflight  = flag.Int("max-inflight", 0, "admission control: concurrent requests allowed to execute (0 = unbounded)")
		maxQueue     = flag.Int("max-queue", 0, "admission control: requests that may wait for a slot (0 = same as -max-inflight)")
		queueWait    = flag.Duration("queue-wait", 0, "admission control: max queue wait before shedding (0 = 50ms default)")
		retryAfter   = flag.Duration("retry-after", 0, "admission control: Retry-After hint on shed responses (0 = 1s default)")
		showVersion  = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *showVersion {
		fmt.Println("lscrd", buildinfo.Version())
		return
	}
	admission := server.AdmissionOptions{
		MaxInflight: *maxInflight,
		MaxQueue:    *maxQueue,
		QueueWait:   *queueWait,
		RetryAfter:  *retryAfter,
	}
	if *follow != "" {
		if *kgPath != "" || *dataDir != "" {
			fmt.Fprintln(os.Stderr, "lscrd: -follow replicates the writer's state; it cannot be combined with -kg or -data")
			os.Exit(2)
		}
		runFollower(*follow, *addr, lscr.Options{ConstraintCacheSize: *cacheSize}, admission)
		return
	}
	opts := lscr.Options{ConstraintCacheSize: *cacheSize, CompactAfter: *compactAfter}
	switch *durability {
	case "sync":
		opts.Durability = lscr.DurabilitySync
	case "lazy":
		opts.Durability = lscr.DurabilityLazy
	default:
		fmt.Fprintf(os.Stderr, "lscrd: -durability must be sync or lazy, got %q\n", *durability)
		os.Exit(2)
	}
	if *kgPath == "" && *dataDir == "" {
		fmt.Fprintln(os.Stderr, "lscrd: -kg or -data is required")
		os.Exit(2)
	}
	eng, err := provision(*dataDir, *kgPath, opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lscrd:", err)
		os.Exit(2)
	}
	kg := eng.KG()
	var srvOpts []server.Option
	if *readonly {
		srvOpts = append(srvOpts, server.ReadOnly())
	}
	srvOpts = append(srvOpts, server.WithAdmission(admission))
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lscrd:", err)
		os.Exit(2)
	}
	log.Printf("lscrd %s serving %d vertices / %d edges on %s",
		buildinfo.Version(), kg.NumVertices(), kg.NumEdges(), ln.Addr())
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	srv := &http.Server{
		Handler:           server.New(eng, kg, srvOpts...),
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		WriteTimeout:      writeTimeout,
		IdleTimeout:       idleTimeout,
	}
	if err := serve(ctx, srv, ln); err != nil {
		log.Fatal("lscrd: ", err)
	}
	// Graceful-shutdown seal: with -data, fold whatever overlay the run
	// accumulated into a fresh segment so the next boot replays nothing,
	// then release the WAL and mapping. In-flight requests have drained.
	if *dataDir != "" {
		sctx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
		if _, err := eng.Compact(sctx); err != nil {
			log.Print("lscrd: shutdown seal failed: ", err)
		}
		cancel()
		if err := eng.Close(); err != nil {
			log.Print("lscrd: close: ", err)
		}
	}
	log.Print("lscrd: shut down cleanly")
}

// runFollower runs lscrd as a read replica: bootstrap from the
// writer's newest sealed segment, tail its WAL feed, and serve the
// read-only /v1 surface. No -kg/-data — the writer is the source of
// truth; a restart simply re-bootstraps.
func runFollower(writer, addr string, opts lscr.Options, admission server.AdmissionOptions) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	f, err := cluster.StartFollower(ctx, cluster.FollowerConfig{
		Writer:        writer,
		Options:       opts,
		ServerOptions: []server.Option{server.WithAdmission(admission)},
		Logf:          log.Printf,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "lscrd:", err)
		os.Exit(2)
	}
	defer f.Close()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lscrd:", err)
		os.Exit(2)
	}
	log.Printf("lscrd %s following %s at epoch %d on %s",
		buildinfo.Version(), writer, f.Epoch(), ln.Addr())
	srv := &http.Server{
		Handler:           f,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		WriteTimeout:      writeTimeout,
		IdleTimeout:       idleTimeout,
	}
	if err := serve(ctx, srv, ln); err != nil {
		log.Fatal("lscrd: ", err)
	}
	log.Print("lscrd: shut down cleanly")
}

// provision builds the engine: from a data directory (opening the
// store, or creating one from -kg on first boot), or in-memory from -kg
// alone.
func provision(dataDir, kgPath string, opts lscr.Options) (*lscr.Engine, error) {
	if dataDir != "" {
		eng, err := lscr.Open(dataDir, opts)
		if err == nil {
			log.Printf("lscrd: opened store %s", dataDir)
			return eng, nil
		}
		if !errors.Is(err, lscr.ErrNoStore) {
			return nil, err
		}
		if kgPath == "" {
			return nil, fmt.Errorf("%s holds no store and -kg was not given", dataDir)
		}
		kg, err := loadKG(kgPath)
		if err != nil {
			return nil, err
		}
		log.Printf("lscrd: creating store %s from %s", dataDir, kgPath)
		return lscr.Create(dataDir, kg, opts)
	}
	kg, err := loadKG(kgPath)
	if err != nil {
		return nil, err
	}
	return lscr.NewEngine(kg, opts), nil
}

// serve runs srv on ln until ctx is cancelled (SIGINT/SIGTERM in main),
// then drains in-flight requests for up to shutdownGrace before
// returning. A clean drain returns nil.
func serve(ctx context.Context, srv *http.Server, ln net.Listener) error {
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		if errors.Is(err, http.ErrServerClosed) {
			return nil
		}
		return err
	case <-ctx.Done():
		sctx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
		defer cancel()
		return srv.Shutdown(sctx)
	}
}

// loadKG reads an N-Triples KG file.
func loadKG(path string) (*lscr.KG, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return lscr.Load(f)
}
