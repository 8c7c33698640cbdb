package lscr

import (
	"context"
	"errors"
	"fmt"
	"os"
	"time"

	"lscr/internal/graph"
	core "lscr/internal/lscr"
	"lscr/internal/segment"
)

// Live graph mutations.
//
// Engine.Apply commits a batch of edge insertions/deletions (plus
// new-vertex and new-label interning) atomically: the whole batch is
// validated against the current epoch first, then a new epoch — the
// same base CSR with a small sorted delta overlay layered on top — is
// published with one atomic pointer swap. Either every mutation of the
// batch is visible or none is; a reader never observes a torn batch,
// and queries already in flight keep the epoch they started on
// (RCU-style snapshot isolation).
//
// Traversal reads the overlay through the same label-run scan shape as
// the base CSR: a mutated vertex answers from its complete merged row
// (insertions merged in, deletions masked, (label, head)-sorted), an
// untouched vertex from its base row. UIS, UIS* and the conjunctive
// search — which consult no precomputed index — therefore answer on an
// overlay view exactly as they would on a from-scratch rebuild of the
// same edge set, bit-identical Stats included.
//
// INS stays index-guided under writes: the commit path derives a
// maintained local index for every published epoch
// (core.ApplyMutations). Every edge insert or delete marks dirty the one
// landmark whose region sources the edge, and entries are never
// rewritten; INS excludes dirty landmarks from its Check/Cut/Push
// shortcuts and keeps pruning with every clean one, whose entries are
// exactly those a frozen-assignment rebuild on the new view would hold —
// the property the maintained-equivalence tier and the maintenance fuzz
// target pin. The derivation shares every entry with the previous epoch
// and costs O(batch + landmarks) for the op walk and the dirty-flag
// copy, not O(|G|). A seal rebuilds the index from scratch; only the
// landmarks of the batches it replays onto the rebuild (those that
// landed mid-rebuild) are dirty in the epoch it publishes. The epoch
// binds the index to its graph view, so a reader's single atomic load
// always yields a mutually consistent (graph, index) pair.
//
// Once the overlay accumulates Options.CompactAfter edge operations, a
// background compactor folds it into a fresh base CSR, rebuilds the
// local index with the engine's original parameters, and swaps the
// result in. A seal has one meaning wherever it is published — the
// writer's swap, WAL recovery, a replica: epoch S is the fold of every
// batch up to the seal's base epoch B with a fresh index, plus the
// batches B+1..S-1 that landed mid-rebuild, replayed onto it in one
// graph.ReplayOnto and maintained in one ApplyMutations call (seal).
// After a quiet compaction the engine is bit-for-bit the engine
// NewEngine would build on the current edge set: compaction preserves
// vertex/label IDs and the index build is deterministic per (graph,
// seed) — the property the mutate equivalence tier pins under -race.

// MutationOp names one mutation kind on the wire and in the Go API.
type MutationOp string

// Mutation operations.
const (
	// OpAddEdge inserts one edge instance (the graph is a multigraph;
	// parallel edges accumulate). Unknown subject/object vertices and
	// unknown labels are interned on first use.
	OpAddEdge MutationOp = "add-edge"
	// OpDeleteEdge removes one instance of the triple; it fails with
	// ErrEdgeNotFound when no instance remains at that point of the
	// batch.
	OpDeleteEdge MutationOp = "delete-edge"
	// OpAddVertex interns a (possibly isolated) vertex by name; a no-op
	// when the name exists.
	OpAddVertex MutationOp = "add-vertex"
	// OpAddLabel interns a label by name; a no-op when the name exists.
	OpAddLabel MutationOp = "add-label"
)

// Mutation is one operation of an Apply batch, in terms of names (like
// every public surface of the engine). Subject/Label/Object are
// required per Op: add-edge and delete-edge use all three, add-vertex
// uses Subject, add-label uses Label.
type Mutation struct {
	Op      MutationOp `json:"op"`
	Subject string     `json:"subject,omitempty"`
	Label   string     `json:"label,omitempty"`
	Object  string     `json:"object,omitempty"`
}

// Mutation errors.
var (
	// ErrEdgeNotFound marks the deletion of an edge with no remaining
	// instance.
	ErrEdgeNotFound = errors.New("lscr: edge not found")
	// ErrInvalidMutation marks a mutation whose op is unknown or whose
	// fields do not fit its op.
	ErrInvalidMutation = errors.New("lscr: invalid mutation")
)

// DefaultCompactAfter is the overlay-size threshold selected when
// Options.CompactAfter is zero: compaction (a full CSR + index rebuild)
// is amortised over at least this many mutations.
const DefaultCompactAfter = 4096

// ApplyResult reports one committed batch.
type ApplyResult struct {
	// Epoch is the sequence number of the published epoch.
	Epoch uint64 `json:"epoch"`
	// Added and Deleted count the batch's edge operations.
	Added   int `json:"added"`
	Deleted int `json:"deleted"`
	// NewVertices and NewLabels count names interned by the batch.
	NewVertices int `json:"new_vertices"`
	NewLabels   int `json:"new_labels"`
	// OverlayOps is the total uncompacted operation count after the
	// batch.
	OverlayOps int `json:"overlay_ops"`
	// CompactionStarted reports that this batch crossed the
	// CompactAfter threshold and kicked off a background compaction.
	CompactionStarted bool `json:"compaction_started"`
}

// EpochInfo is a point-in-time snapshot of the engine's epoch state,
// surfaced by the server's /healthz.
type EpochInfo struct {
	// Epoch is the serving epoch's sequence number (0 at construction,
	// +1 per Apply or compaction swap).
	Epoch uint64 `json:"epoch"`
	// OverlayOps is the serving epoch's uncompacted operation count.
	OverlayOps int `json:"overlay_ops"`
	// Compactions counts completed compactions.
	Compactions int64 `json:"compactions"`
}

// KG returns the current epoch's knowledge-graph view. Like every read
// it is a consistent immutable snapshot; mutations committed later
// appear only in later KG() results.
func (e *Engine) KG() *KG { return e.current().kg }

// Epoch reports the engine's current epoch state.
func (e *Engine) Epoch() EpochInfo {
	return e.epochInfo(e.current())
}

func (e *Engine) epochInfo(ep *epoch) EpochInfo {
	return EpochInfo{
		Epoch:       ep.seq,
		OverlayOps:  ep.kg.g.OverlaySize(),
		Compactions: e.compactions.Load(),
	}
}

// Health returns a mutually consistent snapshot for monitoring
// surfaces: the KG view, the constraint-cache counters, the epoch info
// and the maintenance stats are all derived from one epoch load, so the
// numbers describe the same serving state even while mutations commit
// concurrently (separate KG()/CacheStats()/Epoch()/IndexMaintenance()
// calls could each observe a different epoch).
func (e *Engine) Health() (*KG, CacheStats, EpochInfo, MaintStats) {
	ep := e.current()
	return ep.kg, ep.cacheStats(), e.epochInfo(ep), e.maintStats(ep)
}

// Apply atomically commits muts in order. On any error — an unknown
// name or missing edge in a delete, a malformed mutation, a cancelled
// ctx — nothing is published and the engine state is unchanged. On
// success the new epoch is visible to every query started after Apply
// returns (and to none started before).
//
// Apply batches serialize with each other and with compaction swaps;
// reads are never blocked. The per-batch cost is proportional to the
// batch plus the degrees of the touched vertices (and a spine copy of
// |V|/256 pointers), not to |G| or to the overlay accumulated since the
// last compaction.
func (e *Engine) Apply(ctx context.Context, muts []Mutation) (ApplyResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return ApplyResult{}, err
	}
	if e.replica {
		return ApplyResult{}, ErrReplicaWrite
	}
	// Fail-stop: after a write failure the durable log no longer matches
	// what the engine would acknowledge, so mutations are refused until a
	// restart re-derives the state from disk. Poisoning is monotonic, so
	// checking before the lock cannot race into a stale acceptance.
	if err := e.poisonedErr(); err != nil {
		return ApplyResult{}, err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	cur := e.ep.Load()
	if len(muts) == 0 {
		return ApplyResult{Epoch: cur.seq, OverlayOps: cur.kg.g.OverlaySize()}, nil
	}
	c, err := e.commitMutations(cur, muts)
	if err != nil {
		return ApplyResult{}, err
	}
	// Staging may have taken a while on a big batch; honour a
	// cancellation that fired during it before publishing.
	if err := ctx.Err(); err != nil {
		return ApplyResult{}, err
	}
	res := ApplyResult{NewVertices: c.newVertices, NewLabels: c.newLabels}
	for _, m := range muts {
		switch m.Op {
		case OpAddEdge:
			res.Added++
		case OpDeleteEdge:
			res.Deleted++
		}
	}
	if c.g == cur.kg.g {
		// Every mutation was an idempotent no-op (interning names that
		// already exist): the view is unchanged, so there is no epoch to
		// publish.
		res.Epoch = cur.seq
		res.OverlayOps = c.g.OverlaySize()
		return res, nil
	}
	ep := e.newEpoch(cur.seq+1, c.g, c.idx, c.touched)
	if e.store != nil {
		// Durability point: the batch is in the WAL (and, in sync mode,
		// on stable storage) before any reader can observe its epoch. On
		// failure nothing is published, the caller gets the write error
		// itself, and the engine poisons: the log may now hold a torn or
		// unsynced prefix, so no further writes are acknowledged until a
		// restart re-derives the state from disk.
		if err := e.store.logBatch(ep.seq, muts); err != nil {
			return ApplyResult{}, e.fatal(err)
		}
	}
	e.publishEpoch(ep)
	e.countMaint(c.maint)
	res.Epoch = ep.seq
	res.OverlayOps = c.g.OverlaySize()
	if t := e.compactThreshold(); t >= 0 && res.OverlayOps >= t {
		res.CompactionStarted = e.startCompaction()
	}
	return res, nil
}

// commit is one staged mutation batch, ready to publish: the new view,
// the index for it, the write history including it, and what the batch
// did.
type commit struct {
	g       *graph.Graph
	idx     *core.LocalIndex
	touched lastTouch
	// maint is the index-maintenance report; nil when the batch did not
	// maintain the index.
	maint                  *core.MaintBatch
	newVertices, newLabels int
}

// commitMutations stages muts onto cur's view and derives the
// maintained index and the write history of epoch cur.seq+1 — the one
// commit core behind Apply and applyLogged (WAL replay and replicated
// apply), so all three invalidate cached constraints by the same rule.
// It publishes nothing and touches no counter: the caller publishes the
// epoch and then counts c.maint. c.g equals cur's graph when every
// mutation was an idempotent no-op; the caller decides whether that is
// legal.
func (e *Engine) commitMutations(cur *epoch, muts []Mutation) (commit, error) {
	d := graph.NewDelta(cur.kg.g)
	for i, m := range muts {
		if err := stage(d, m); err != nil {
			return commit{}, fmt.Errorf("mutation %d: %w", i, err)
		}
	}
	c := commit{idx: cur.idx, newVertices: d.NewVertices(), newLabels: d.NewLabels()}
	ops := d.EdgeOps()
	var err error
	if c.g, err = d.Commit(); err != nil {
		// Staging validates every op; a Commit failure is an internal
		// inconsistency and must not publish.
		return commit{}, err
	}
	if c.g == cur.kg.g {
		return c, nil
	}
	c.touched = cur.touched.after(cur.seq+1, ops, c.newVertices+c.newLabels > 0)
	// Maintain the local index through the batch so the published epoch
	// pairs the new view with an index exact for it. The derivation never
	// touches cur.idx, so readers on older epochs are unaffected.
	if c.idx != nil {
		var mb core.MaintBatch
		c.idx, mb = c.idx.ApplyMutations(c.g, ops)
		c.maint = &mb
	}
	return c, nil
}

// countMaint adds a published batch's maintenance report to the
// cumulative MaintStats counters; a nil report counts nothing.
func (e *Engine) countMaint(mb *core.MaintBatch) {
	if mb == nil {
		return
	}
	e.maintBatches.Add(1)
	e.maintInvalidated.Add(int64(mb.LandmarksInvalidated))
}

// stage translates one wire-level mutation into delta operations.
func stage(d *graph.Delta, m Mutation) error {
	switch m.Op {
	case OpAddEdge:
		if m.Subject == "" || m.Label == "" || m.Object == "" {
			return fmt.Errorf("%w: add-edge needs subject, label and object", ErrInvalidMutation)
		}
		if err := d.AddEdgeNames(m.Subject, m.Label, m.Object); err != nil {
			return fmt.Errorf("%w: %v", ErrInvalidMutation, err)
		}
		return nil
	case OpDeleteEdge:
		if m.Subject == "" || m.Label == "" || m.Object == "" {
			return fmt.Errorf("%w: delete-edge needs subject, label and object", ErrInvalidMutation)
		}
		s, ok := d.LookupVertex(m.Subject)
		if !ok {
			return fmt.Errorf("%w: %q", ErrUnknownVertex, m.Subject)
		}
		t, ok := d.LookupVertex(m.Object)
		if !ok {
			return fmt.Errorf("%w: %q", ErrUnknownVertex, m.Object)
		}
		l, ok := d.LookupLabel(m.Label)
		if !ok {
			return fmt.Errorf("%w: %q", ErrUnknownLabel, m.Label)
		}
		if err := d.DeleteEdge(s, l, t); err != nil {
			if errors.Is(err, graph.ErrEdgeNotFound) {
				return fmt.Errorf("%w: (%s, %s, %s)", ErrEdgeNotFound, m.Subject, m.Label, m.Object)
			}
			return err
		}
		return nil
	case OpAddVertex:
		if m.Subject == "" {
			return fmt.Errorf("%w: add-vertex needs a subject name", ErrInvalidMutation)
		}
		d.Vertex(m.Subject)
		return nil
	case OpAddLabel:
		if m.Label == "" {
			return fmt.Errorf("%w: add-label needs a label name", ErrInvalidMutation)
		}
		if _, err := d.Label(m.Label); err != nil {
			return fmt.Errorf("%w: %v", ErrInvalidMutation, err)
		}
		return nil
	}
	return fmt.Errorf("%w: unknown op %q", ErrInvalidMutation, m.Op)
}

// compactThreshold resolves Options.CompactAfter: the default when
// zero, -1 (disabled) when negative.
func (e *Engine) compactThreshold() int {
	switch {
	case e.opts.CompactAfter < 0:
		return -1
	case e.opts.CompactAfter == 0:
		return DefaultCompactAfter
	}
	return e.opts.CompactAfter
}

// startCompaction spawns the background compactor unless one is already
// running.
func (e *Engine) startCompaction() bool {
	if !e.compacting.CompareAndSwap(false, true) {
		return false
	}
	go func() {
		defer e.compacting.Store(false)
		// A compaction failure — an I/O fault sealing the segment or an
		// internal overlay inconsistency — poisons the engine (compact
		// does it before returning): reads keep serving, writes are
		// refused, /healthz reports degraded. Nothing to do here.
		e.compact()
	}()
	return true
}

// Compact synchronously folds the current overlay into a fresh base CSR
// and rebuilds the local index, making INS's landmark pruning exact
// again. It reports false when there was nothing to compact. Reads stay
// unblocked for the whole rebuild; only the final pointer swap
// serializes with Apply. If a background compaction is in flight,
// Compact waits for it and then compacts whatever overlay remains.
func (e *Engine) Compact(ctx context.Context) (bool, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return false, err
	}
	if e.replica {
		return false, ErrReplicaWrite
	}
	return e.compact()
}

// compactBarrier, when non-nil, runs between the heavy rebuild phase
// and the catch-up swap — a test-only seam that lets the race between
// an in-flight compaction and a concurrent Apply be produced
// deterministically (see TestMutateCompactionCatchUp*).
var compactBarrier func()

// sealBarrier, when non-nil, runs after the seal record is durable and
// the epoch is swapped but before the segment image is renamed into
// place — the other crash window inside a persistent compaction, used
// by the kill-point recovery tests.
var sealBarrier func()

// compact is the shared compaction body: rebuild outside the locks,
// catch up on mutations that landed mid-rebuild, swap. On a persistent
// engine the compaction doubles as the segment seal: the folded CSR and
// fresh index are written as a segment image before the swap, the swap
// itself appends a durable seal record, and only then is the image
// published (rename) and the WAL truncated to the uncovered suffix —
// in every crash window the newest on-disk segment plus the WAL tail
// still reproduce the serving state exactly.
func (e *Engine) compact() (bool, error) {
	e.compactMu.Lock()
	defer e.compactMu.Unlock()
	if err := e.poisonedErr(); err != nil {
		return false, err
	}

	snap := e.ep.Load()
	if !snap.kg.g.HasOverlay() {
		return false, nil
	}
	// The heavy phase runs against the immutable snapshot with no lock
	// held.
	base := e.fold(snap.seq, snap.kg.g)
	// Seal the rebuilt state as an unpublished segment image, still
	// outside the engine lock (a full serialisation pass).
	var tmpSeg string
	if e.store != nil {
		var err error
		tmpSeg, err = segment.WriteTemp(e.store.dir, snap.seq, base.g, base.idx, e.opts.Landmarks, e.opts.IndexSeed)
		if err != nil {
			// No swap happened: the serving state is untouched, but the
			// store may hold a partial temp image and the seal cannot be
			// trusted to succeed — fail stop (reads continue, restart
			// sweeps the stray temp and recovers).
			return false, e.fatal(err)
		}
	}
	if compactBarrier != nil {
		compactBarrier()
	}

	// The locked phase: catch up on batches that landed mid-rebuild,
	// make the seal durable, publish the epoch.
	e.mu.Lock()
	err := e.seal(e.ep.Load(), base, snap.kg.g.OverlaySize(), e.store)
	e.mu.Unlock()
	if err != nil {
		if tmpSeg != "" {
			os.Remove(tmpSeg)
		}
		// Either the seal record failed to become durable or the replay
		// found an internal inconsistency; both leave the on-disk state
		// behind the serving state in ways only a restart resolves.
		return false, e.fatal(err)
	}
	e.compactions.Add(1)

	if sealBarrier != nil {
		sealBarrier()
	}
	// Publish the image and truncate the log, holding only compactMu:
	// readers and Apply proceed, and the order (seal record durable →
	// rename → rotate) keeps every intermediate crash recoverable.
	if e.store != nil {
		// The epoch is already swapped; any failure from here on leaves
		// disk lagging the serving state (a recoverable lag — the seal
		// record is durable, so a restart replays to the same epoch), but
		// further writes cannot be trusted: fail stop.
		final, err := segment.Commit(tmpSeg)
		if err != nil {
			return false, e.fatal(err)
		}
		e.store.segSeq.Store(snap.seq)
		e.store.lastSeal.Store(time.Now().UnixNano())
		if err := e.store.wal.Rotate(snap.seq); err != nil {
			return false, e.fatal(err)
		}
		if err := segment.RemoveObsolete(e.store.dir, final); err != nil {
			return false, e.fatal(err)
		}
	}
	return true, nil
}

// sealBase is a seal's fold: the overlay-free graph of every batch up
// to epoch seq and the index freshly built for it (nil under SkipIndex).
type sealBase struct {
	seq uint64
	g   *graph.Graph
	idx *core.LocalIndex
}

// fold folds g, the view at epoch seq, into a fresh base CSR and
// rebuilds the local index for it exactly as NewEngine would.
func (e *Engine) fold(seq uint64, g *graph.Graph) sealBase {
	b := sealBase{seq: seq, g: g.Compact()}
	if !e.opts.SkipIndex {
		b.idx = core.NewLocalIndex(b.g, e.indexParams())
	}
	return b
}

// seal is the locked half of every seal, the writer's compaction swap
// and a logged seal record (sealLogged) alike: it publishes epoch
// cur.seq+1 as base plus cur's batches after base.seq, whose ops are
// cur's overlay log from baseOps on. A batch may have grown only the
// dictionaries, so the seq comparison — not the log length — decides
// whether to catch up; the index is maintained through the whole suffix
// in one call. st, when non-nil, makes the seal record durable first.
// The caller holds e.mu.
func (e *Engine) seal(cur *epoch, base sealBase, baseOps int, st *store) error {
	g, idx := base.g, base.idx
	if cur.seq != base.seq {
		var err error
		if g, err = graph.ReplayOnto(base.g, cur.kg.g, baseOps, cur.kg.g.Cut()); err != nil {
			return err
		}
		if idx != nil {
			idx, _ = idx.ApplyMutations(g, cur.kg.g.OverlayEdgeOps(baseOps))
		}
	}
	if st != nil {
		// The seal record carries the epoch bump and the covered prefix;
		// it must be durable before the segment can become the newest.
		if err := st.sealAppend(cur.seq+1, base.seq); err != nil {
			return err
		}
	}
	// Rebase the cut record onto the fold: the epochs after base.seq
	// keep their places, minus the folded ops.
	cuts := make([]graph.Cut, 0, cur.seq-base.seq+1)
	for _, c := range e.cuts[base.seq-e.sealed.seq:] {
		c.Ops -= baseOps
		cuts = append(cuts, c)
	}
	e.sealed, e.cuts = base, cuts
	// The seal keeps cur's edges and names, so cur's write history holds
	// for it unchanged and every cached constraint carries over.
	e.publishEpoch(e.newEpoch(cur.seq+1, g, idx, cur.touched))
	return nil
}

// sealLogged publishes a logged seal record folding the prefix up to
// epoch baseSeq. At the engine's own sealed base (a normal restart, a
// follower bootstrapped from the seal's segment) the fold is at hand;
// otherwise (a restart after a failed segment publish, a follower
// bootstrapped before the compaction) it is rebuilt from baseSeq's cut.
func (e *Engine) sealLogged(cur *epoch, baseSeq uint64) error {
	base, baseOps := e.sealed, 0
	if baseSeq != base.seq {
		if baseSeq < base.seq || baseSeq-base.seq > uint64(len(e.cuts)) {
			return fmt.Errorf("seal at epoch %d covers epoch %d, outside the records since epoch %d", cur.seq+1, baseSeq, base.seq)
		}
		cut := e.cuts[baseSeq-base.seq-1]
		prefix, err := graph.ReplayOnto(base.g, cur.kg.g, 0, cut)
		if err != nil {
			return err
		}
		base, baseOps = e.fold(baseSeq, prefix), cut.Ops
	}
	return e.seal(cur, base, baseOps, nil)
}
