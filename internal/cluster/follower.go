package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	"lscr"
	"lscr/client"
	"lscr/internal/failpoint"
	"lscr/server"
)

// Follower defaults.
const (
	DefaultFollowerPoll  = 5 * time.Second
	DefaultFollowerRetry = 500 * time.Millisecond
)

// FollowerConfig wires a Follower.
type FollowerConfig struct {
	// Writer is the base URL of the writer lscrd (or the gateway, which
	// proxies the replication endpoints to it).
	Writer string
	// Options configures the replica engine; index parameters are
	// overridden by the fetched segment's (as lscr.Open does), so
	// rebuilds at seal points match the writer bit-for-bit.
	Options lscr.Options
	// Poll is the server-side long-poll window per replication read
	// (DefaultFollowerPoll when zero); Retry the backoff after a failed
	// read (DefaultFollowerRetry when zero).
	Poll  time.Duration
	Retry time.Duration
	// HTTPClient carries the replication traffic; http.DefaultClient
	// when nil. It must not impose a global timeout shorter than Poll.
	HTTPClient *http.Client
	// ServerOptions are applied to the read-only handler each bootstrap
	// builds (e.g. server.WithAdmission for overload protection on the
	// replica's own listener).
	ServerOptions []server.Option
	// Logf receives tail-loop events; discarded when nil.
	Logf func(format string, args ...any)
}

// followerState is one bootstrapped serving generation: the replica
// engine and the read-only handler over it. Re-bootstraps swap the
// whole pair atomically, so requests always hit a consistent
// (engine, handler) generation.
type followerState struct {
	eng *lscr.Engine
	h   http.Handler
}

// Follower is a read replica: it bootstraps from the writer's newest
// sealed segment, then tails the WAL feed, replaying every batch
// through the engine's normal commit path — so at every epoch it
// serves, its answers are bit-identical to the writer's at that epoch.
// It is an http.Handler serving the read-only /v1 surface (mutations
// answer 403; clients send writes to the writer or the gateway).
//
// The tail loop survives writer restarts (transport errors back off
// and re-poll from the cursor — the writer's WAL is durable, so the
// feed resumes where it left) and falls back to a full re-bootstrap
// when the cursor drops below the writer's WAL horizon (410 Gone) or
// the feed stops fitting the replica's state (divergence is never
// papered over).
type Follower struct {
	cfg    FollowerConfig
	cli    *client.Client
	state  atomic.Pointer[followerState]
	cursor atomic.Uint64
	// bootstraps counts initial + re-bootstraps (observability, tests).
	bootstraps atomic.Int64

	cancel context.CancelFunc
	done   chan struct{}
}

// StartFollower bootstraps a replica from cfg.Writer (synchronously —
// when it returns, the follower serves reads at the fetched segment's
// epoch) and starts the tail loop. Close stops the loop.
func StartFollower(ctx context.Context, cfg FollowerConfig) (*Follower, error) {
	f := &Follower{
		cfg: cfg,
		cli: client.New(cfg.Writer, client.WithHTTPClient(cfg.HTTPClient)),
	}
	if err := f.bootstrap(ctx); err != nil {
		return nil, err
	}
	tctx, cancel := context.WithCancel(context.Background())
	f.cancel = cancel
	f.done = make(chan struct{})
	go f.tail(tctx)
	return f, nil
}

// FPFollowerBootstrap is the failpoint site evaluated at the top of a
// follower bootstrap; armed error policies exercise the rebootstrap
// retry loop (a transiently unreachable writer at bootstrap time).
const FPFollowerBootstrap = "follower-bootstrap"

// bootstrap fetches the writer's newest sealed segment, opens a fresh
// replica engine over it, and swaps it in; the cursor restarts at the
// segment's base epoch.
func (f *Follower) bootstrap(ctx context.Context) error {
	if fp := failpoint.Eval(FPFollowerBootstrap); fp != nil {
		return fmt.Errorf("cluster: follower bootstrap: %w", fp)
	}
	data, base, err := f.cli.Segment(ctx)
	if err != nil {
		return fmt.Errorf("cluster: follower bootstrap: %w", err)
	}
	eng, err := lscr.OpenReplicaSegment(data, f.cfg.Options)
	if err != nil {
		return fmt.Errorf("cluster: follower bootstrap: %w", err)
	}
	f.state.Store(&followerState{
		eng: eng,
		h:   server.New(eng, eng.KG(), append([]server.Option{server.ReadOnly()}, f.cfg.ServerOptions...)...),
	})
	f.cursor.Store(base)
	f.bootstraps.Add(1)
	f.logf("bootstrapped at epoch %d (%d bytes)", base, len(data))
	return nil
}

// tail is the replication loop: long-poll the feed at the cursor,
// replay, advance; 410/divergence re-bootstraps, transport errors back
// off and re-poll (which is exactly what a writer restart looks like
// from here — the cursor survives, the writer's WAL is durable, so
// tailing resumes where it stopped).
func (f *Follower) tail(ctx context.Context) {
	defer close(f.done)
	for ctx.Err() == nil {
		resp, err := f.cli.Replicate(ctx, f.cursor.Load(), f.poll())
		if err != nil {
			if ctx.Err() != nil {
				return
			}
			var apiErr *client.APIError
			if errors.As(err, &apiErr) && apiErr.StatusCode == http.StatusGone {
				f.logf("cursor %d below writer's WAL horizon; re-bootstrapping", f.cursor.Load())
				f.rebootstrap(ctx)
				continue
			}
			f.logf("replicate from %d: %v", f.cursor.Load(), err)
			f.sleep(ctx)
			continue
		}
		eng := f.state.Load().eng
		diverged := false
		for _, rb := range resp.Batches {
			if err = eng.ApplyReplicated(ctx, rb); err != nil {
				if ctx.Err() != nil {
					return
				}
				// A feed record that does not extend this replica —
				// whatever the cause — is grounds for a clean restart
				// from the segment, never for guessing.
				f.logf("replay epoch %d: %v; re-bootstrapping", rb.Epoch, err)
				f.rebootstrap(ctx)
				diverged = true
				break
			}
			f.cursor.Store(rb.Epoch)
		}
		if diverged {
			continue
		}
	}
}

// rebootstrap retries bootstrap until it succeeds or ctx ends.
func (f *Follower) rebootstrap(ctx context.Context) {
	for ctx.Err() == nil {
		if err := f.bootstrap(ctx); err == nil {
			return
		} else {
			f.logf("%v", err)
		}
		f.sleep(ctx)
	}
}

func (f *Follower) sleep(ctx context.Context) {
	t := time.NewTimer(f.retry())
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}

func (f *Follower) poll() time.Duration {
	if f.cfg.Poll > 0 {
		return f.cfg.Poll
	}
	return DefaultFollowerPoll
}

func (f *Follower) retry() time.Duration {
	if f.cfg.Retry > 0 {
		return f.cfg.Retry
	}
	return DefaultFollowerRetry
}

func (f *Follower) logf(format string, args ...any) {
	if f.cfg.Logf != nil {
		f.cfg.Logf("follower: "+format, args...)
	}
}

// ServeHTTP serves the read-only /v1 surface over the current replica
// generation.
func (f *Follower) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	f.state.Load().h.ServeHTTP(w, r)
}

// Engine returns the current replica engine (a re-bootstrap may swap
// it; callers hold the returned pointer for at most one operation).
func (f *Follower) Engine() *lscr.Engine { return f.state.Load().eng }

// Epoch is the replica's serving epoch.
func (f *Follower) Epoch() uint64 { return f.Engine().Epoch().Epoch }

// Bootstraps counts segment bootstraps (1 after StartFollower; +1 per
// re-bootstrap).
func (f *Follower) Bootstraps() int64 { return f.bootstraps.Load() }

// Close stops the tail loop.
func (f *Follower) Close() {
	f.cancel()
	<-f.done
}
