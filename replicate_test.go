package lscr_test

import (
	"context"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	pub "lscr"
	"lscr/internal/segment"
)

// refusalKG has the edges (a, l, b) and (b, m, c); (b, l, a) is absent.
const refusalKG = "<a> <l> <b> .\n<b> <m> <c> .\n"

// refusalStore creates a closed store over refusalKG at epoch 0.
func refusalStore(t *testing.T) string {
	t.Helper()
	kg, err := pub.Load(strings.NewReader(refusalKG))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	eng, err := pub.Create(dir, kg, mutOpts)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	if err := eng.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return dir
}

// appendRecord hand-appends one record to dir's WAL.
func appendRecord(t *testing.T, dir string, kind byte, seq uint64, payload []byte) {
	t.Helper()
	wal, _, err := segment.OpenWAL(segment.WALPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	if err := wal.Append(kind, seq, payload, true); err != nil {
		t.Fatal(err)
	}
	if err := wal.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestReplicaLogRefusals: a logged batch that does not extend the
// engine's history is refused, never guessed at, through both entry
// points that apply one — ApplyReplicated for the follower feed
// (ErrReplicaCursor, engine unchanged) and Open's WAL recovery
// (ErrCorruptStore) — and the feed never ships a record it cannot
// decode.
func TestReplicaLogRefusals(t *testing.T) {
	ctx := context.Background()
	valid := []pub.Mutation{{Op: pub.OpAddEdge, Subject: "a", Label: "m", Object: "c"}}

	dir := refusalStore(t)
	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.lscrseg"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments: %v %v", segs, err)
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	replica, err := pub.OpenReplicaSegment(data, mutOpts)
	if err != nil {
		t.Fatalf("OpenReplicaSegment: %v", err)
	}
	for _, tc := range []struct {
		name string
		rb   pub.ReplicationBatch
	}{
		{"wrong epoch", pub.ReplicationBatch{Epoch: 2, Mutations: valid}},
		{"no-op batch", pub.ReplicationBatch{Epoch: 1, Mutations: []pub.Mutation{{Op: pub.OpAddVertex, Subject: "a"}}}},
		{"absent-edge delete", pub.ReplicationBatch{Epoch: 1, Mutations: []pub.Mutation{{Op: pub.OpDeleteEdge, Subject: "b", Label: "l", Object: "a"}}}},
		{"seal beyond the records", pub.ReplicationBatch{Epoch: 1, Seal: true, Base: 1}},
	} {
		if err := replica.ApplyReplicated(ctx, tc.rb); !errors.Is(err, pub.ErrReplicaCursor) {
			t.Errorf("ApplyReplicated(%s) = %v, want ErrReplicaCursor", tc.name, err)
		}
		if got := replica.Epoch().Epoch; got != 0 {
			t.Fatalf("refused ApplyReplicated(%s) moved the replica to epoch %d", tc.name, got)
		}
	}
	if _, err := replica.Apply(ctx, valid); !errors.Is(err, pub.ErrReplicaWrite) {
		t.Errorf("Apply on a replica = %v, want ErrReplicaWrite", err)
	}
	if err := replica.ApplyReplicated(ctx, pub.ReplicationBatch{Epoch: 1, Mutations: valid}); err != nil {
		t.Fatalf("ApplyReplicated(valid) after the refusals: %v", err)
	}
	writer, err := pub.Open(dir, mutOpts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if err := writer.ApplyReplicated(ctx, pub.ReplicationBatch{Epoch: 1, Mutations: valid}); !errors.Is(err, pub.ErrNotReplica) {
		t.Errorf("ApplyReplicated on a writer = %v, want ErrNotReplica", err)
	}
	if err := writer.Close(); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name string
		seq  uint64
		op   segment.Op
	}{
		{"epoch gap", 2, segment.Op{Kind: segment.OpAddEdge, Subject: "a", Label: "m", Object: "c"}},
		{"no-op batch", 1, segment.Op{Kind: segment.OpAddVertex, Subject: "a"}},
		{"absent-edge delete", 1, segment.Op{Kind: segment.OpDeleteEdge, Subject: "b", Label: "l", Object: "a"}},
	} {
		dir := refusalStore(t)
		appendRecord(t, dir, segment.RecordBatch, tc.seq, segment.EncodeOps([]segment.Op{tc.op}))
		if eng, err := pub.Open(dir, mutOpts); !errors.Is(err, pub.ErrCorruptStore) {
			if err == nil {
				eng.Close()
			}
			t.Errorf("Open over a WAL with a %s = %v, want ErrCorruptStore", tc.name, err)
		}
	}

	// Records the feed cannot ship faithfully: the live writer's feed
	// refuses each rather than ship it, and recovery refuses the store.
	// An unknown op kind names no mutation; a seal must carry the 8-byte
	// base epoch of the prefix it folded, below its own epoch, or it
	// would replay as a bare epoch bump.
	kg, err := pub.Load(strings.NewReader(refusalKG))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		kind    byte
		payload []byte
	}{
		{"op kind 9", segment.RecordBatch, segment.EncodeOps([]segment.Op{{Kind: 9, Subject: "a"}})},
		{"4-byte seal", segment.RecordSeal, []byte{0, 0, 0, 0}},
		{"seal covering its own epoch", segment.RecordSeal, binary.LittleEndian.AppendUint64(nil, 1)},
	} {
		dir := t.TempDir()
		live, err := pub.Create(dir, kg, mutOpts)
		if err != nil {
			t.Fatalf("Create: %v", err)
		}
		appendRecord(t, dir, tc.kind, 1, tc.payload)
		batches, err := live.ReplicationRead(0, 0)
		if !errors.Is(err, pub.ErrCorruptStore) || batches != nil {
			t.Errorf("ReplicationRead over a %s = %+v, %v; want an ErrCorruptStore error", tc.name, batches, err)
		}
		if err := live.Close(); err != nil {
			t.Fatal(err)
		}
		if eng, err := pub.Open(dir, mutOpts); !errors.Is(err, pub.ErrCorruptStore) {
			if err == nil {
				eng.Close()
			}
			t.Errorf("Open over a WAL with a %s = %v, want ErrCorruptStore", tc.name, err)
		}
	}
}
