package lscr

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync/atomic"
	"time"

	"lscr/internal/graph"
	"lscr/internal/segment"
)

// Persistent engines.
//
// Create seals the engine's state into an on-disk segment — the base
// CSR in both directions, the label-run index, the string dictionaries
// and the local index, laid out as aligned little-endian flat arrays
// with per-section checksums (internal/segment) — and
// attaches a write-ahead log. Open maps the newest segment back
// (near-zero-copy: the graph arrays and dictionary strings alias the
// mapping) and replays the WAL tail through the engine's normal commit
// path, so a restart costs one checksum pass plus the tail replay
// instead of a full parse and index build.
//
// Durability contract: Apply appends the committed batch to the WAL —
// and, under DurabilitySync, fsyncs it — before the new epoch becomes
// visible to any reader. A crash therefore loses at most batches whose
// Apply never returned (none under sync mode; under lazy mode, batches
// the OS had not yet flushed). Compaction doubles as the seal: the
// folded CSR and freshly rebuilt index are written as a new segment,
// the swap is recorded in the WAL, and the log is truncated to the
// suffix the new segment does not cover — an LSM-style rewrite that
// keeps the WAL short and the next boot instant. Recovery replays
// batches by name through the same interning path as Apply, and each
// seal record through the same seal the compaction ran, which makes
// the recovered engine's vertex and label IDs, overlay and index — and
// therefore its answers, epoch numbers and INS statistics — identical
// to the pre-crash run's.
//
// A persistence I/O failure — a WAL append or fsync inside Apply, or
// any write inside a compaction seal — poisons the engine (fail-stop,
// see poison.go): the failing call returns the write error, every
// later Apply/Compact returns ErrPoisoned, and reads keep serving the
// last published epoch, which was fully durable before it became
// visible. An engine that can no longer honour its durability contract
// must not keep acknowledging writes; a restart (Open on the same
// directory) recovers the durable prefix exactly.

// Durability selects the WAL fsync policy of a persistent engine.
type Durability int

const (
	// DurabilitySync (the default) fsyncs the WAL before Apply returns:
	// an acknowledged batch survives any crash.
	DurabilitySync Durability = iota
	// DurabilityLazy appends without fsync and leaves flushing to the
	// OS: Apply is much cheaper, and a crash may lose the most recent
	// batches (but never corrupts the store — recovery truncates the
	// torn tail and serves the longest durable prefix).
	DurabilityLazy
)

// String names the durability mode.
func (d Durability) String() string {
	switch d {
	case DurabilitySync:
		return "sync"
	case DurabilityLazy:
		return "lazy"
	}
	return fmt.Sprintf("Durability(%d)", int(d))
}

// Persistence errors.
var (
	// ErrNoStore marks a data directory with no sealed segment; callers
	// typically fall back to Create.
	ErrNoStore = errors.New("lscr: no store in data directory")
	// ErrStoreExists marks a Create against a directory that already
	// holds a store.
	ErrStoreExists = errors.New("lscr: store already exists")
	// ErrCorruptStore marks an unreadable or internally inconsistent
	// store: every checksum, framing and replay-consistency failure from
	// Open wraps it. It is the same sentinel the lower layers use, so
	// one errors.Is covers the whole persistence stack.
	ErrCorruptStore = graph.ErrCorrupt
)

// store is the persistence attachment of an Engine: the data
// directory, the WAL, and the boot segment's mapping (kept until Close
// — compactions build heap-backed bases, so at most one mapping is
// live per engine, and old epochs may alias it until the process
// drains).
type store struct {
	dir      string
	wal      *segment.WAL
	seg      *segment.Segment // boot mapping; nil for Create-fresh engines
	syncEach bool
	segSeq   atomic.Uint64 // newest sealed segment's base epoch
	// durable is the newest epoch known to be on stable storage: every
	// logged batch under sync mode, only boot state and seals under lazy
	// mode. lastSeal is the wall clock (UnixNano) of the newest segment
	// seal. Both feed DurabilityInfo, which /healthz surfaces for the
	// cluster coordinator's lag display.
	durable  atomic.Uint64
	lastSeal atomic.Int64
}

// logBatch makes one committed Apply batch durable. It runs before the
// epoch publish, so a batch is never visible without being logged.
func (s *store) logBatch(seq uint64, muts []Mutation) error {
	if err := s.wal.Append(segment.RecordBatch, seq, encodeBatch(muts), s.syncEach); err != nil {
		return err
	}
	if s.syncEach {
		s.durable.Store(seq)
	}
	return nil
}

// sealAppend records a compaction swap: epoch seq published a state
// whose prefix is covered by the segment sealed at baseSeq. Seal
// records are always fsynced — compactions are rare, and the record
// must be durable before the segment becomes the newest on disk.
func (s *store) sealAppend(seq, baseSeq uint64) error {
	var payload [8]byte
	binary.LittleEndian.PutUint64(payload[:], baseSeq)
	if err := s.wal.Append(segment.RecordSeal, seq, payload[:], true); err != nil {
		return err
	}
	s.durable.Store(seq)
	return nil
}

// Create builds an engine for kg exactly as NewEngine would, then seals
// its state into a fresh store at dir (created if absent; empty when
// dir is empty, Options.DataDir is used). It fails with ErrStoreExists
// when dir already holds a segment, and refuses a directory with a
// non-empty WAL but no segment rather than silently discarding logged
// batches.
func Create(dir string, kg *KG, opts Options) (*Engine, error) {
	dir, err := resolveDataDir(dir, opts)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if paths, err := segment.List(dir); err != nil {
		return nil, err
	} else if len(paths) > 0 {
		return nil, fmt.Errorf("%w: %s", ErrStoreExists, dir)
	}
	// The WAL is checked before any segment is written: a refused Create
	// must leave no segment behind, or the next Open would replay the
	// orphaned batches onto the new graph.
	wal, recs, err := segment.OpenWAL(segment.WALPath(dir))
	if err != nil {
		return nil, err
	}
	if len(recs) > 0 {
		wal.Close()
		return nil, fmt.Errorf("lscr: %w: directory has a %d-record WAL but held no segment", ErrCorruptStore, len(recs))
	}
	e := NewEngine(kg, opts)
	ep := e.current()
	if _, err := segment.Write(dir, 0, ep.kg.g, ep.idx, e.opts.Landmarks, e.opts.IndexSeed); err != nil {
		wal.Close()
		return nil, err
	}
	st := &store{dir: dir, wal: wal, syncEach: opts.Durability == DurabilitySync}
	st.lastSeal.Store(time.Now().UnixNano())
	e.store = st
	return e, nil
}

// Open maps the newest segment in dir (Options.DataDir when dir is
// empty), replays the WAL tail — batches through the normal commit
// path, seal records through the writer's own seal over the prefix each
// names — and returns an engine identical — answers, epoch numbers,
// overlay, index and INS statistics — to the one that last served the
// store, even when that engine's last seal never published its
// segment. It returns ErrNoStore when the directory holds no segment
// and an error wrapping ErrCorruptStore when checksums, framing or
// replay consistency fail.
//
// The index build parameters recorded in the segment override the
// corresponding Options fields, so later compactions rebuild the same
// index the store was created with; Options.SkipIndex is still
// honoured. Close must be called (after draining queries) to release
// the mapping and the WAL.
func Open(dir string, opts Options) (*Engine, error) {
	dir, err := resolveDataDir(dir, opts)
	if err != nil {
		return nil, err
	}
	removeStrayTemps(dir)
	seg, err := segment.OpenDir(dir)
	if errors.Is(err, segment.ErrNoSegment) || errors.Is(err, os.ErrNotExist) {
		// A directory with no segment and a nonexistent directory both
		// mean "no store yet": callers fall back to Create either way.
		return nil, fmt.Errorf("%w: %s", ErrNoStore, dir)
	}
	if err != nil {
		return nil, err
	}
	committed := false
	defer func() {
		if !committed {
			seg.Close()
		}
	}()

	e := &Engine{opts: opts}
	e.startSegment(seg)

	wal, recs, err := segment.OpenWAL(segment.WALPath(dir))
	if err != nil {
		return nil, err
	}
	st := &store{dir: dir, wal: wal, seg: seg, syncEach: opts.Durability == DurabilitySync}
	st.segSeq.Store(seg.BaseSeq)
	if fi, err := os.Stat(seg.Path); err == nil {
		st.lastSeal.Store(fi.ModTime().UnixNano())
	}
	e.store = st
	if err := e.replayWAL(recs, seg.BaseSeq); err != nil {
		wal.Close()
		return nil, err
	}
	// Everything replayed was read back from disk, so the whole boot
	// state is durable regardless of mode.
	st.durable.Store(e.current().seq)
	committed = true
	// The replayed tail may already exceed the compaction threshold
	// (e.g. a crash loop that never reached a seal); re-seal in the
	// background exactly as a threshold-crossing Apply would.
	if t := e.compactThreshold(); t >= 0 && e.current().kg.g.OverlaySize() >= t {
		e.startCompaction()
	}
	return e, nil
}

// resolveDataDir applies the Options.DataDir default.
func resolveDataDir(dir string, opts Options) (string, error) {
	if dir == "" {
		dir = opts.DataDir
	}
	if dir == "" {
		return "", errors.New("lscr: no data directory (pass dir or set Options.DataDir)")
	}
	return dir, nil
}

// removeStrayTemps deletes temp files a crashed writer left behind
// (never-published segment images, interrupted WAL rotations).
func removeStrayTemps(dir string) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, ent := range entries {
		if strings.HasSuffix(ent.Name(), ".tmp") {
			os.Remove(filepath.Join(dir, ent.Name()))
		}
	}
}

// replayWAL re-commits the log tail onto the boot epoch. Records at or
// below the segment's base epoch are covered by the segment itself
// (present only when a crash hit between segment publish and log
// rotation); everything above it must continue gaplessly from the
// segment — a gap means the store is inconsistent and serving it could
// silently drop committed batches.
func (e *Engine) replayWAL(recs []segment.WALRecord, baseSeq uint64) error {
	expected := baseSeq
	for _, rec := range recs {
		if rec.Seq <= baseSeq {
			continue
		}
		if rec.Seq != expected+1 {
			return fmt.Errorf("lscr: %w: wal gap: record at epoch %d follows %d", ErrCorruptStore, rec.Seq, expected)
		}
		b, err := decodeWALRecord(rec)
		if err != nil {
			return err
		}
		if err := e.applyLogged(b); err != nil {
			return fmt.Errorf("lscr: %w: wal %v", ErrCorruptStore, err)
		}
		expected = rec.Seq
	}
	return nil
}

// applyLogged publishes one logged record — a WAL record at recovery, a
// feed record on a replica. A batch takes Apply's commit path: same
// staging, same interning order, same index maintenance, minus the WAL
// append (the batch is already durable) and the compaction trigger. A
// seal takes the writer's seal (sealLogged). A record that does not
// extend the current epoch by one, fails to stage, stages to a no-op
// (Apply never logs those) or names a prefix the engine has no record
// of does not describe a real engine history; the caller wraps the
// error in its own sentinel. The caller serializes publishers (e.mu,
// or sole ownership during Open).
func (e *Engine) applyLogged(b ReplicationBatch) error {
	cur := e.ep.Load()
	if b.Epoch != cur.seq+1 {
		return fmt.Errorf("record at epoch %d onto epoch %d", b.Epoch, cur.seq)
	}
	if b.Seal {
		return e.sealLogged(cur, b.Base)
	}
	c, err := e.commitMutations(cur, b.Mutations)
	if err != nil {
		return fmt.Errorf("batch at epoch %d: %v", b.Epoch, err)
	}
	if c.g == cur.kg.g {
		return fmt.Errorf("batch at epoch %d is a no-op", b.Epoch)
	}
	e.publishEpoch(e.newEpoch(b.Epoch, c.g, c.idx, c.touched))
	e.countMaint(c.maint)
	return nil
}

// Close releases the persistence attachment: it waits for an in-flight
// compaction, syncs and closes the WAL, and unmaps the boot segment.
// Callers must drain queries first — epochs predating the last
// compaction alias the mapping. Close is idempotent; a nil-store
// (purely in-memory) engine closes trivially. Apply fails after Close.
func (e *Engine) Close() error {
	// compactMu waits out an in-flight compaction (it uses the WAL and
	// the segment directory); no new one can start afterwards because
	// Apply's WAL append fails once the log is closed.
	e.compactMu.Lock()
	defer e.compactMu.Unlock()
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.store == nil {
		return nil
	}
	err := e.store.wal.Close()
	if e.store.seg != nil {
		if cerr := e.store.seg.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// DurabilityInfo is a point-in-time snapshot of an engine's
// persistence state, surfaced by the server's /healthz next to the
// epoch info.
type DurabilityInfo struct {
	// Persistent is false for in-memory engines (NewEngine); all other
	// fields are then zero.
	Persistent bool `json:"persistent"`
	// Mode is the WAL fsync policy ("sync" or "lazy").
	Mode string `json:"mode,omitempty"`
	// SegmentEpoch is the newest sealed segment's base epoch: the store
	// can serve every epoch from there through the WAL tail.
	SegmentEpoch uint64 `json:"segment_epoch"`
	// WALRecords and WALBytes measure the un-compacted log tail.
	WALRecords int   `json:"wal_records"`
	WALBytes   int64 `json:"wal_bytes"`
	// LastSync is the wall-clock time of the last WAL fsync (zero until
	// the first one).
	LastSync time.Time `json:"last_sync,omitzero"`
	// DurableEpoch is the newest epoch known to be on stable storage:
	// every committed batch under sync mode; under lazy mode only the
	// boot state and compaction seals (batches in between ride on the
	// OS cache). The cluster coordinator compares it across replicas.
	DurableEpoch uint64 `json:"durable_epoch"`
	// LastSeal is the wall-clock time of the newest segment seal (the
	// boot segment's file time until this process compacts).
	LastSeal time.Time `json:"last_seal,omitzero"`
}

// Durability reports the engine's persistence state.
func (e *Engine) Durability() DurabilityInfo {
	if e.store == nil {
		return DurabilityInfo{}
	}
	st := e.store.wal.Stats()
	mode := DurabilityLazy
	if e.store.syncEach {
		mode = DurabilitySync
	}
	info := DurabilityInfo{
		Persistent:   true,
		Mode:         mode.String(),
		SegmentEpoch: e.store.segSeq.Load(),
		WALRecords:   st.Records,
		WALBytes:     st.Bytes,
		LastSync:     st.LastSync,
		DurableEpoch: e.store.durable.Load(),
	}
	if ns := e.store.lastSeal.Load(); ns != 0 {
		info.LastSeal = time.Unix(0, ns)
	}
	return info
}

// opKinds maps the WAL codec's op kind bytes to mutation ops (index =
// kind; 0 is no op). Logging and decoding both read it.
var opKinds = [...]MutationOp{
	segment.OpAddEdge:    OpAddEdge,
	segment.OpDeleteEdge: OpDeleteEdge,
	segment.OpAddVertex:  OpAddVertex,
	segment.OpAddLabel:   OpAddLabel,
}

// encodeBatch is the WAL payload of an Apply batch. Apply validates
// every op before logging, so each has a kind.
func encodeBatch(muts []Mutation) []byte {
	ops := make([]segment.Op, len(muts))
	for i, m := range muts {
		ops[i] = segment.Op{Kind: byte(slices.Index(opKinds[:], m.Op)), Subject: m.Subject, Label: m.Label, Object: m.Object}
	}
	return segment.EncodeOps(ops)
}

// decodeWALRecord is the one reader of a WAL record, for recovery and
// the replication feed alike: the feed record it stands for, a batch's
// mutations or a seal with the base epoch of the prefix it folded.
func decodeWALRecord(rec segment.WALRecord) (ReplicationBatch, error) {
	b := ReplicationBatch{Epoch: rec.Seq}
	switch rec.Kind {
	case segment.RecordBatch:
		ops, err := segment.DecodeOps(rec.Payload)
		if err != nil {
			return b, fmt.Errorf("lscr: wal batch at epoch %d: %w", rec.Seq, err)
		}
		b.Mutations = make([]Mutation, len(ops))
		for i, op := range ops {
			if int(op.Kind) >= len(opKinds) || opKinds[op.Kind] == "" {
				return b, fmt.Errorf("lscr: %w: wal batch at epoch %d: op kind %d", ErrCorruptStore, rec.Seq, op.Kind)
			}
			b.Mutations[i] = Mutation{Op: opKinds[op.Kind], Subject: op.Subject, Label: op.Label, Object: op.Object}
		}
	case segment.RecordSeal:
		if len(rec.Payload) != 8 {
			return b, fmt.Errorf("lscr: %w: wal seal at epoch %d: %d-byte payload", ErrCorruptStore, rec.Seq, len(rec.Payload))
		}
		b.Seal, b.Base = true, binary.LittleEndian.Uint64(rec.Payload)
		if b.Base >= rec.Seq {
			return b, fmt.Errorf("lscr: %w: wal seal at epoch %d covers epoch %d", ErrCorruptStore, rec.Seq, b.Base)
		}
	default:
		return b, fmt.Errorf("lscr: %w: wal record kind %d at epoch %d", ErrCorruptStore, rec.Kind, rec.Seq)
	}
	return b, nil
}
