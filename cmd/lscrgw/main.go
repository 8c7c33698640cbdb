// Command lscrgw is the cluster gateway: it serves the same /v1 wire
// contract as a single lscrd over a replicated fleet.
//
//	lscrgw -writer http://w:8080 -replica http://r1:8081 -replica http://r2:8082 -addr :8000
//
// Reads (/v1/query, /v1/batch, /select) are routed across
// healthy, fresh replicas — a per-replica circuit breaker fed by
// background /healthz probes and in-band forwarding results takes
// failing replicas out of rotation, and a hedged second attempt bounds
// tail latency. Batches fan out across replicas and merge back in
// request order. Writes (/v1/mutate) fan in to the single designated
// writer, which replicates committed batches to followers over its WAL
// feed. /healthz reports the whole cluster: per-replica breaker state,
// epochs and lag behind the writer.
//
// Consistency: every answer is computed at some published epoch of the
// writer's history (per-epoch identity — replicas replay the writer's
// WAL through the same commit path), and -staleness bounds how many
// epochs behind the writer a read may be served.
//
// Overload and failure: a backend that sheds (429) is routed around for
// a cooldown without tripping its breaker — overloaded is not broken —
// and when every backend sheds, the 429 and its Retry-After are relayed
// so the client's retry policy takes over. -budget bounds each read and
// propagates the remaining time to backends so queue time counts
// against the caller's deadline; a /v1/query or /select whose budget
// expires before any backend answers gets 504. A writer whose /healthz
// reports fail-stop poisoning makes mutations fail static (503 +
// Retry-After) at the gateway while reads keep flowing to replicas.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"lscr/api"
	"lscr/internal/buildinfo"
	"lscr/internal/cluster"
)

// Same listener limits as lscrd: the gateway fronts the same traffic.
const (
	readHeaderTimeout = 5 * time.Second
	readTimeout       = 30 * time.Second
	writeTimeout      = 2 * time.Minute
	idleTimeout       = 2 * time.Minute
	shutdownGrace     = 15 * time.Second
)

// urlList collects repeated (or comma-separated) -replica flags.
type urlList []string

func (u *urlList) String() string { return strings.Join(*u, ",") }

func (u *urlList) Set(v string) error {
	for _, s := range strings.Split(v, ",") {
		if s = strings.TrimSpace(s); s != "" {
			*u = append(*u, s)
		}
	}
	return nil
}

func main() {
	var replicas urlList
	var (
		writer      = flag.String("writer", "", "base URL of the writer lscrd (required)")
		addr        = flag.String("addr", ":8000", "listen address")
		probe       = flag.Duration("probe-interval", cluster.DefaultProbeInterval, "health-probe interval")
		hedge       = flag.Duration("hedge-after", cluster.DefaultHedgeAfter, "launch a hedged read after this long (negative = never)")
		staleness   = flag.Uint64("staleness", 0, "max epochs a replica may lag the writer and still serve reads (0 = unbounded)")
		budget      = flag.Duration("budget", 0, "per-read deadline budget, propagated to backends via "+api.BudgetHeader+" (0 = none)")
		showVersion = flag.Bool("version", false, "print version and exit")
	)
	flag.Var(&replicas, "replica", "replica base URL (repeatable, or comma-separated)")
	flag.Parse()
	if *showVersion {
		fmt.Println("lscrgw", buildinfo.Version())
		return
	}
	if *writer == "" {
		fmt.Fprintln(os.Stderr, "lscrgw: -writer is required")
		os.Exit(2)
	}
	co := cluster.NewCoordinator(cluster.Config{
		Writer:         *writer,
		Replicas:       replicas,
		ProbeInterval:  *probe,
		HedgeAfter:     *hedge,
		StalenessBound: *staleness,
		RequestBudget:  *budget,
		Logf:           log.Printf,
	})
	co.Start()
	defer co.Close()
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lscrgw:", err)
		os.Exit(2)
	}
	log.Printf("lscrgw %s routing writer %s + %d replica(s) on %s",
		buildinfo.Version(), *writer, len(replicas), ln.Addr())
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	srv := &http.Server{
		Handler:           co,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		WriteTimeout:      writeTimeout,
		IdleTimeout:       idleTimeout,
	}
	if err := serve(ctx, srv, ln); err != nil {
		log.Fatal("lscrgw: ", err)
	}
	log.Print("lscrgw: shut down cleanly")
}

// serve runs srv on ln until ctx is cancelled, then drains in-flight
// requests for up to shutdownGrace.
func serve(ctx context.Context, srv *http.Server, ln net.Listener) error {
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		if err == http.ErrServerClosed {
			return nil
		}
		return err
	case <-ctx.Done():
		sctx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
		defer cancel()
		return srv.Shutdown(sctx)
	}
}
