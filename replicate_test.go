package lscr_test

import (
	"context"
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

// appendBatchRecord hand-appends one batch record to dir's WAL.
func appendBatchRecord(t *testing.T, dir string, seq uint64, ops []segment.Op) {
	t.Helper()
	wal, _, err := segment.OpenWAL(segment.WALPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	if err := wal.Append(segment.RecordBatch, seq, segment.EncodeOps(ops), true); err != nil {
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
		seq  uint64
		muts []pub.Mutation
	}{
		{"wrong epoch", 2, valid},
		{"no-op batch", 1, []pub.Mutation{{Op: pub.OpAddVertex, Subject: "a"}}},
		{"absent-edge delete", 1, []pub.Mutation{{Op: pub.OpDeleteEdge, Subject: "b", Label: "l", Object: "a"}}},
	} {
		if err := replica.ApplyReplicated(ctx, tc.seq, tc.muts); !errors.Is(err, pub.ErrReplicaCursor) {
			t.Errorf("ApplyReplicated(%s) = %v, want ErrReplicaCursor", tc.name, err)
		}
		if got := replica.Epoch().Epoch; got != 0 {
			t.Fatalf("refused ApplyReplicated(%s) moved the replica to epoch %d", tc.name, got)
		}
	}
	if _, err := replica.Apply(ctx, valid); !errors.Is(err, pub.ErrReplicaWrite) {
		t.Errorf("Apply on a replica = %v, want ErrReplicaWrite", err)
	}
	if err := replica.ApplyReplicated(ctx, 1, valid); err != nil {
		t.Fatalf("ApplyReplicated(valid) after the refusals: %v", err)
	}
	writer, err := pub.Open(dir, mutOpts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if err := writer.ApplyReplicated(ctx, 1, valid); !errors.Is(err, pub.ErrNotReplica) {
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
		appendBatchRecord(t, dir, tc.seq, []segment.Op{tc.op})
		if eng, err := pub.Open(dir, mutOpts); !errors.Is(err, pub.ErrCorruptStore) {
			if err == nil {
				eng.Close()
			}
			t.Errorf("Open over a WAL with a %s = %v, want ErrCorruptStore", tc.name, err)
		}
	}

	// An unknown op kind: the live writer's feed refuses the record
	// rather than ship an op it cannot name, and recovery refuses the
	// store.
	kg, err := pub.Load(strings.NewReader(refusalKG))
	if err != nil {
		t.Fatal(err)
	}
	dir = t.TempDir()
	live, err := pub.Create(dir, kg, mutOpts)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	appendBatchRecord(t, dir, 1, []segment.Op{{Kind: 9, Subject: "a"}})
	batches, err := live.ReplicationRead(0, 0)
	if !errors.Is(err, pub.ErrCorruptStore) || batches != nil {
		t.Errorf("ReplicationRead over op kind 9 = %+v, %v; want an ErrCorruptStore error", batches, err)
	}
	if err := live.Close(); err != nil {
		t.Fatal(err)
	}
	if eng, err := pub.Open(dir, mutOpts); !errors.Is(err, pub.ErrCorruptStore) {
		if err == nil {
			eng.Close()
		}
		t.Errorf("Open over a WAL with op kind 9 = %v, want ErrCorruptStore", err)
	}
}
