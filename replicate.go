package lscr

import (
	"context"
	"errors"
	"fmt"
	"os"

	"lscr/internal/failpoint"
	"lscr/internal/segment"
)

// fpReplicateRead is the replication-feed failpoint: armed, it fails
// ReplicationRead before the log scan, which the follower sees as a
// transient feed error (it retries, it never corrupts its cursor).
const fpReplicateRead = "replicate-read"

// Replication.
//
// A persistent engine (Open/Create) doubles as a replication source:
// its WAL is an epoch-sequenced log of every committed batch and every
// compaction seal, so the epoch number is the replication cursor.
// ReplicationRead streams the intact records above a cursor;
// SegmentFile hands out the newest sealed segment for bootstrap. A
// follower process opens that segment image with OpenReplicaSegment and
// replays the feed through ApplyReplicated — batches on the same
// staging, interning and index-maintenance path Apply runs, seals on
// the writer's own seal over the prefix the record names, as Open's WAL
// recovery does — so for every replicated epoch the follower's vertex
// and label IDs, overlay and index, and therefore its answers and INS
// statistics, are bit-identical to the writer's at that epoch (the
// cluster e2e tier pins this against a single-engine oracle). A
// replica engine refuses direct Apply/Compact: its epochs advance only
// with the feed.
//
// The feed carries name-level mutations, not physical pages, which is
// what makes replay through the normal commit path possible — and what
// makes the bit-identity argument one about determinism of the commit
// path rather than about byte-copying.

// Replication errors.
var (
	// ErrReplicaLag reports a replication cursor below the WAL horizon:
	// a compaction rotated the requested records away, so the follower
	// must re-bootstrap from the newest segment instead of tailing.
	ErrReplicaLag = errors.New("lscr: replication cursor below the WAL horizon; re-bootstrap from the newest segment")
	// ErrReplicaWrite marks a direct Apply or Compact on a replica
	// engine, whose state advances only through the replication feed.
	ErrReplicaWrite = errors.New("lscr: replica engines take writes only through the replication feed")
	// ErrNotReplica marks ApplyReplicated on an engine that is not a
	// replica (the writer must use Apply).
	ErrNotReplica = errors.New("lscr: not a replica engine")
	// ErrReplicaCursor marks a replicated record that does not fit the
	// replica's state — wrong epoch, a batch that fails to stage, a
	// no-op batch the writer would never have logged, or a seal over a
	// prefix the replica holds no record of. The follower's
	// response is to re-bootstrap, never to guess.
	ErrReplicaCursor = errors.New("lscr: replicated record does not extend the replica's epoch")
	// ErrNoReplicationLog marks ReplicationRead/SegmentFile on an
	// in-memory engine, which has no log to replicate from.
	ErrNoReplicationLog = errors.New("lscr: engine is not persistent; nothing to replicate from")
)

// MaxReplicationBatches bounds the records one ReplicationRead returns;
// a lagging follower drains the rest on its next poll.
const MaxReplicationBatches = 4096

// ReplicationBatch is one record of the replication feed: the epoch it
// publishes and either the batch's mutations or a seal. A seal means
// the writer compacted: the epoch is the fold of every batch up to
// Base with a fresh index, plus the batches after Base replayed onto
// it, and the follower folds exactly that prefix.
type ReplicationBatch struct {
	Epoch     uint64     `json:"epoch"`
	Seal      bool       `json:"seal,omitempty"`
	Base      uint64     `json:"base,omitempty"`
	Mutations []Mutation `json:"mutations,omitempty"`
}

// OpenReplicaSegment assembles a replica engine over a segment image
// fetched from the writer (the bytes of the writer's newest sealed
// segment file, typically via the server's /v1/segment endpoint). data
// must stay live and unmodified for the engine's lifetime — the graph
// arrays and dictionary strings alias it.
//
// The segment's recorded index parameters override the corresponding
// Options fields (as Open does), so index rebuilds at seal points match
// the writer's bit-for-bit. Automatic compaction is forced off: a
// replica folds its overlay exactly when the feed says the writer did,
// keeping the epoch sequences aligned. The engine starts at the
// segment's base epoch; tail the writer's feed from there.
func OpenReplicaSegment(data []byte, opts Options) (*Engine, error) {
	seg, err := segment.OpenBytes(data)
	if err != nil {
		return nil, err
	}
	opts.CompactAfter = -1
	opts.DataDir = ""
	e := &Engine{opts: opts, replica: true}
	e.startSegment(seg)
	return e, nil
}

// ApplyReplicated publishes one feed record as shipped by the writer's
// ReplicationRead. A batch runs the same commit path as Apply (staging,
// interning order, index maintenance); a seal folds the prefix up to
// b.Base and catches up the later batches exactly as the writer's
// compaction did. That is what makes the replica's IDs, answers and
// INS statistics at epoch b.Epoch bit-identical to the writer's.
// b.Epoch must extend the replica's current epoch by exactly one;
// anything else — a batch that fails to stage, a seal whose base the
// replica holds no record of — returns an error wrapping
// ErrReplicaCursor and leaves the engine unchanged.
func (e *Engine) ApplyReplicated(ctx context.Context, b ReplicationBatch) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if !e.replica {
		return ErrNotReplica
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.applyLogged(b); err != nil {
		return fmt.Errorf("%w: %v", ErrReplicaCursor, err)
	}
	return nil
}

// ReplicationRead returns up to max feed records with epochs above
// from, oldest first (max <= 0 selects MaxReplicationBatches). An
// empty result means the cursor is current — callers long-poll via
// EpochPublished. ErrReplicaLag means the records were rotated away by
// a compaction and the follower must re-bootstrap from SegmentFile.
//
// The read scans the log file independently of the appender, so it
// never blocks Apply; a record the scan sees is already durable in the
// log (Apply writes before it publishes), so nothing shipped here can
// be lost to a writer crash.
func (e *Engine) ReplicationRead(from uint64, max int) ([]ReplicationBatch, error) {
	if e.store == nil {
		return nil, ErrNoReplicationLog
	}
	if fp := failpoint.Eval(fpReplicateRead); fp != nil {
		return nil, fp
	}
	if max <= 0 || max > MaxReplicationBatches {
		max = MaxReplicationBatches
	}
	recs, err := segment.ReadWALAfter(segment.WALPath(e.store.dir), from)
	if err != nil {
		return nil, err
	}
	if len(recs) == 0 {
		if e.current().seq > from {
			// Epochs above the cursor exist but their records are gone:
			// everything up to the current state was folded into a
			// segment and the log rotated past the cursor.
			return nil, ErrReplicaLag
		}
		return nil, nil
	}
	if len(recs) < max {
		max = len(recs)
	}
	out := make([]ReplicationBatch, 0, max)
	expected := from
	for _, rec := range recs {
		if len(out) == max {
			break
		}
		if rec.Seq != expected+1 {
			// The log is contiguous by construction; the cursor starting
			// below its horizon (or a rotation racing the scan) shows up
			// as a gap. Either way the follower re-bootstraps rather than
			// receive a torn feed.
			return nil, ErrReplicaLag
		}
		b, err := decodeWALRecord(rec)
		if err != nil {
			return nil, err
		}
		out = append(out, b)
		expected = rec.Seq
	}
	return out, nil
}

// SegmentFile opens the newest sealed segment for streaming to a
// bootstrapping follower and returns its base epoch — the cursor the
// follower tails the feed from. The returned file descriptor stays
// readable even if a concurrent compaction unlinks the segment
// mid-transfer; the caller closes it.
func (e *Engine) SegmentFile() (*os.File, uint64, error) {
	if e.store == nil {
		return nil, 0, ErrNoReplicationLog
	}
	base := e.store.segSeq.Load()
	f, err := os.Open(segment.PathFor(e.store.dir, base))
	if err != nil {
		// A compaction can remove the segment between the load and the
		// open; the replacement is already published, so retry against
		// the fresh base once.
		base = e.store.segSeq.Load()
		f, err = os.Open(segment.PathFor(e.store.dir, base))
	}
	if err != nil {
		return nil, 0, err
	}
	return f, base, nil
}

// EpochPublished returns a channel closed by the next epoch publish
// (Apply commit, compaction swap, or replicated record) — the
// wake-up behind the server's /v1/replicate long poll. Each publish
// consumes the channel; callers re-arm by calling EpochPublished again
// after it fires.
func (e *Engine) EpochPublished() <-chan struct{} {
	for {
		if ch := e.pubCh.Load(); ch != nil {
			return *ch
		}
		fresh := make(chan struct{})
		if e.pubCh.CompareAndSwap(nil, &fresh) {
			return fresh
		}
	}
}

// publishEpoch is the single post-construction epoch publish point: it
// records the epoch's cut for a later seal, swaps the serving epoch and
// wakes EpochPublished waiters.
func (e *Engine) publishEpoch(ep *epoch) {
	e.cuts = append(e.cuts, ep.kg.g.Cut())
	e.ep.Store(ep)
	if ch := e.pubCh.Swap(nil); ch != nil {
		close(*ch)
	}
}
