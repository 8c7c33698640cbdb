package lscr_test

import (
	"context"
	"encoding/hex"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	pub "lscr"
	"lscr/internal/segment"
)

// The persistence equivalence tier: an engine served from an on-disk
// store must be indistinguishable from the engine that wrote it.
//
//   - Opening a sealed segment is bit-identical to NewEngine on the
//     same edge set — all four algorithms, INS Stats included — because
//     the segment carries the compaction-rebuilt CSR and index and the
//     mmap'd arrays decode to the same values byte for byte.
//   - Replaying a WAL tail is bit-identical to the pre-shutdown live
//     engine: batches are logged by name and re-interned through the
//     same code path, so IDs, epochs and the maintained index match.
//   - A simulated crash (the data directory as a kill -9 would leave
//     it: copied while the engine is live, or with a torn WAL tail)
//     recovers to a per-prefix answer-identical engine.
//
// The test names carry "Mutate" so the race-enabled CI tier picks them
// up.

// copyDir clones a store directory — the on-disk state an abrupt kill
// would leave, given that sync-mode batches are fsynced before ack.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range entries {
		in, err := os.Open(filepath.Join(src, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out, err := os.Create(filepath.Join(dst, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := io.Copy(out, in); err != nil {
			t.Fatal(err)
		}
		in.Close()
		if err := out.Close(); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// cloneModel deep-copies the ground-truth model so a prefix state can
// be pinned while the script continues.
func cloneModel(m *mutModel) *mutModel {
	c := newMutModel()
	for _, l := range m.labels {
		c.label(l)
	}
	for _, v := range m.vertices {
		c.vertex(v)
	}
	c.edges = append(c.edges, m.edges...)
	return c
}

// TestMutatePersistOpenIdentity: Create → mutate → Compact (seals a
// segment) → Close → Open must serve bit-identically to both the
// pre-shutdown engine and a from-scratch NewEngine on the final edge
// set, INS Stats included.
func TestMutatePersistOpenIdentity(t *testing.T) {
	const n, nLabels = 60, 4
	g0, model := mutSeedGraph(303, n, nLabels, 360)
	dir := t.TempDir()
	ctx := context.Background()
	bo := pub.BatchOptions{Concurrency: 4}
	reqs := mutRequests(n, nLabels)

	eng, err := pub.Create(dir, pub.FromGraph(g0), mutOpts)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	for step, batch := range mutScript(404, model, 6, 10) {
		if _, err := eng.Apply(ctx, batch); err != nil {
			t.Fatalf("step %d: Apply: %v", step, err)
		}
		for _, mut := range batch {
			model.apply(mut)
		}
	}
	if did, err := eng.Compact(ctx); err != nil || !did {
		t.Fatalf("Compact = %v, %v", did, err)
	}
	want := eng.QueryBatch(ctx, reqs, bo)
	epochBefore := eng.Epoch()
	if err := eng.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	reopened, err := pub.Open(dir, mutOpts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer reopened.Close()
	ep := reopened.Epoch()
	if ep.Epoch != epochBefore.Epoch {
		t.Fatalf("reopened epoch %+v, want %+v", ep, epochBefore)
	}
	dur := reopened.Durability()
	if !dur.Persistent || dur.SegmentEpoch+1 != ep.Epoch {
		t.Fatalf("durability %+v inconsistent with epoch %d", dur, ep.Epoch)
	}
	got := reopened.QueryBatch(ctx, reqs, bo)
	for i := range reqs {
		if err := answersEqual(got[i], want[i], true); err != nil {
			t.Errorf("vs pre-shutdown, request %d (%v): %v", i, reqs[i].Algorithm, err)
		}
	}
	rebuilt := pub.NewEngine(pub.FromGraph(model.build()), mutOpts)
	fresh := rebuilt.QueryBatch(ctx, reqs, bo)
	for i := range reqs {
		if err := answersEqual(got[i], fresh[i], true); err != nil {
			t.Errorf("vs NewEngine, request %d (%v): %v", i, reqs[i].Algorithm, err)
		}
	}
	if t.Failed() {
		t.FailNow()
	}

	// The reopened engine keeps accepting (and logging) writes.
	extra := []pub.Mutation{{Op: pub.OpAddEdge, Subject: "v0", Label: "l0", Object: "v1"}}
	if _, err := reopened.Apply(ctx, extra); err != nil {
		t.Fatalf("Apply after reopen: %v", err)
	}
	model.apply(extra[0])
	rebuilt = pub.NewEngine(pub.FromGraph(model.build()), mutOpts)
	want = rebuilt.QueryBatch(ctx, reqs, bo)
	got = reopened.QueryBatch(ctx, reqs, bo)
	for i := range reqs {
		withStats := reqs[i].Algorithm != pub.INS
		if err := answersEqual(got[i], want[i], withStats); err != nil {
			t.Fatalf("post-reopen apply, request %d (%v): %v", i, reqs[i].Algorithm, err)
		}
	}
}

// TestMutatePersistRestartReplay: with no seal at all (every batch only
// in the WAL), reopening replays the tail through the normal commit
// path and restores the exact pre-shutdown engine — epochs, overlay,
// maintained index and all.
func TestMutatePersistRestartReplay(t *testing.T) {
	const n, nLabels = 50, 3
	g0, model := mutSeedGraph(77, n, nLabels, 280)
	dir := t.TempDir()
	ctx := context.Background()
	bo := pub.BatchOptions{Concurrency: 4}
	reqs := mutRequests(n, nLabels)

	eng, err := pub.Create(dir, pub.FromGraph(g0), mutOpts)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	for step, batch := range mutScript(88, model, 8, 10) {
		if _, err := eng.Apply(ctx, batch); err != nil {
			t.Fatalf("step %d: Apply: %v", step, err)
		}
		for _, mut := range batch {
			model.apply(mut)
		}
	}
	want := eng.QueryBatch(ctx, reqs, bo)
	epochBefore := eng.Epoch()
	maintBefore := eng.IndexMaintenance()
	if epochBefore.OverlayOps == 0 {
		t.Fatal("test needs an uncompacted overlay")
	}
	if err := eng.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	reopened, err := pub.Open(dir, mutOpts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer reopened.Close()
	ep := reopened.Epoch()
	if ep.Epoch != epochBefore.Epoch || ep.OverlayOps != epochBefore.OverlayOps {
		t.Fatalf("reopened epoch %+v, want %+v", ep, epochBefore)
	}
	if maint := reopened.IndexMaintenance(); maint.Batches != maintBefore.Batches || maint.DirtyLandmarks != maintBefore.DirtyLandmarks {
		t.Fatalf("reopened maintenance %+v, want %+v", maint, maintBefore)
	}
	got := reopened.QueryBatch(ctx, reqs, bo)
	for i := range reqs {
		if err := answersEqual(got[i], want[i], true); err != nil {
			t.Fatalf("request %d (%v): %v", i, reqs[i].Algorithm, err)
		}
	}
}

// TestMutateCrashRecoveryPerPrefix simulates a kill -9 after every
// committed batch — the data directory is copied while the engine is
// live — and requires recovery to answer exactly like a from-scratch
// rebuild on that prefix's edge set. A mid-script Compact exercises
// recovery from segment+tail states, not only seg-0+tail.
func TestMutateCrashRecoveryPerPrefix(t *testing.T) {
	const n, nLabels = 40, 3
	g0, model := mutSeedGraph(909, n, nLabels, 200)
	dir := t.TempDir()
	ctx := context.Background()
	bo := pub.BatchOptions{Concurrency: 4}
	reqs := mutRequests(n, nLabels)

	eng, err := pub.Create(dir, pub.FromGraph(g0), mutOpts)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	defer eng.Close()
	script := mutScript(910, model, 6, 8)
	for step, batch := range script {
		if _, err := eng.Apply(ctx, batch); err != nil {
			t.Fatalf("step %d: Apply: %v", step, err)
		}
		for _, mut := range batch {
			model.apply(mut)
		}
		if step == len(script)/2 {
			if _, err := eng.Compact(ctx); err != nil {
				t.Fatalf("step %d: Compact: %v", step, err)
			}
		}

		crash := copyDir(t, dir)
		rec, err := pub.Open(crash, mutOpts)
		if err != nil {
			t.Fatalf("step %d: recovery Open: %v", step, err)
		}
		if got, want := rec.Epoch().Epoch, eng.Epoch().Epoch; got != want {
			rec.Close()
			t.Fatalf("step %d: recovered epoch %d, live epoch %d", step, got, want)
		}
		rebuilt := pub.NewEngine(pub.FromGraph(model.build()), mutOpts)
		want := rebuilt.QueryBatch(ctx, reqs, bo)
		got := rec.QueryBatch(ctx, reqs, bo)
		for i := range reqs {
			// The recovered INS index is the maintained one, not a fresh
			// rebuild: answers must match, stats only for the index-free
			// algorithms (same contract as the overlay tier).
			withStats := reqs[i].Algorithm != pub.INS
			if err := answersEqual(got[i], want[i], withStats); err != nil {
				t.Errorf("step %d, request %d (%v): %v", step, i, reqs[i].Algorithm, err)
			}
		}
		rec.Close()
		if t.Failed() {
			t.FailNow()
		}
	}
}

// TestMutateCrashRecoveryTornTail: a crash mid-append leaves a torn
// final record; recovery must truncate exactly that batch away and
// serve the longest durable prefix.
func TestMutateCrashRecoveryTornTail(t *testing.T) {
	const n, nLabels = 30, 3
	g0, model := mutSeedGraph(111, n, nLabels, 150)
	dir := t.TempDir()
	ctx := context.Background()
	bo := pub.BatchOptions{Concurrency: 2}
	reqs := mutRequests(n, nLabels)

	eng, err := pub.Create(dir, pub.FromGraph(g0), mutOpts)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	defer eng.Close()
	script := mutScript(112, model, 2, 6)
	if _, err := eng.Apply(ctx, script[0]); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	for _, mut := range script[0] {
		model.apply(mut)
	}
	prefix := cloneModel(model)
	if _, err := eng.Apply(ctx, script[1]); err != nil {
		t.Fatalf("Apply: %v", err)
	}

	crash := copyDir(t, dir)
	walPath := filepath.Join(crash, "wal.log")
	st, err := os.Stat(walPath)
	if err != nil {
		t.Fatal(err)
	}
	// Tear the last batch's record mid-body.
	if err := os.Truncate(walPath, st.Size()-3); err != nil {
		t.Fatal(err)
	}
	rec, err := pub.Open(crash, mutOpts)
	if err != nil {
		t.Fatalf("torn-tail Open: %v", err)
	}
	defer rec.Close()
	if got, want := rec.Epoch().Epoch, eng.Epoch().Epoch-1; got != want {
		t.Fatalf("torn-tail epoch %d, want %d", got, want)
	}
	rebuilt := pub.NewEngine(pub.FromGraph(prefix.build()), mutOpts)
	want := rebuilt.QueryBatch(ctx, reqs, bo)
	got := rec.QueryBatch(ctx, reqs, bo)
	for i := range reqs {
		withStats := reqs[i].Algorithm != pub.INS
		if err := answersEqual(got[i], want[i], withStats); err != nil {
			t.Fatalf("request %d (%v): %v", i, reqs[i].Algorithm, err)
		}
	}
}

// TestMutatePersistLifecycleErrors pins the store lifecycle contract:
// Open on nothing is ErrNoStore, Create over a store is ErrStoreExists,
// a flipped segment byte is ErrCorruptStore, Apply after Close fails
// without publishing.
func TestMutatePersistLifecycleErrors(t *testing.T) {
	g0, _ := mutSeedGraph(5, 20, 2, 60)
	ctx := context.Background()

	if _, err := pub.Open(t.TempDir(), mutOpts); !errors.Is(err, pub.ErrNoStore) {
		t.Fatalf("Open(empty) = %v, want ErrNoStore", err)
	}
	if _, err := pub.Open("", mutOpts); err == nil {
		t.Fatal("Open with no dir accepted")
	}

	dir := t.TempDir()
	eng, err := pub.Create(dir, pub.FromGraph(g0), mutOpts)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	if _, err := pub.Create(dir, pub.FromGraph(g0), mutOpts); !errors.Is(err, pub.ErrStoreExists) {
		t.Fatalf("second Create = %v, want ErrStoreExists", err)
	}
	if err := eng.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := eng.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	epoch := eng.Epoch().Epoch
	if _, err := eng.Apply(ctx, []pub.Mutation{{Op: pub.OpAddEdge, Subject: "v0", Label: "l0", Object: "v1"}}); err == nil {
		t.Fatal("Apply after Close accepted")
	}
	if eng.Epoch().Epoch != epoch {
		t.Fatal("failed post-Close Apply published an epoch")
	}

	// Flip one byte of the segment: Open must fail closed.
	crash := copyDir(t, dir)
	segs, err := filepath.Glob(filepath.Join(crash, "seg-*.lscrseg"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments: %v %v", segs, err)
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(segs[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := pub.Open(crash, mutOpts); !errors.Is(err, pub.ErrCorruptStore) {
		t.Fatalf("corrupt Open = %v, want ErrCorruptStore", err)
	}
}

// TestMutatePersistRefusedCreateLeavesNoStore: a directory whose segment
// is gone but whose WAL still holds batches makes Create refuse with
// ErrCorruptStore — and the refusal must leave no segment behind, or
// the next Open would silently replay the orphaned batches onto the new
// graph.
func TestMutatePersistRefusedCreateLeavesNoStore(t *testing.T) {
	const n, nLabels = 20, 2
	g0, model := mutSeedGraph(6, n, nLabels, 60)
	dir := t.TempDir()
	ctx := context.Background()

	eng, err := pub.Create(dir, pub.FromGraph(g0), mutOpts)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	if _, err := eng.Apply(ctx, mutScript(7, model, 1, 1)[0]); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if err := eng.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.lscrseg"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments: %v %v", segs, err)
	}
	if err := os.Remove(segs[0]); err != nil {
		t.Fatal(err)
	}

	if _, err := pub.Create(dir, pub.FromGraph(g0), mutOpts); !errors.Is(err, pub.ErrCorruptStore) {
		t.Fatalf("Create over an orphaned WAL = %v, want ErrCorruptStore", err)
	}
	if segs, _ := filepath.Glob(filepath.Join(dir, "seg-*.lscrseg")); len(segs) != 0 {
		t.Fatalf("refused Create left segments behind: %v", segs)
	}
	if eng, err := pub.Open(dir, mutOpts); !errors.Is(err, pub.ErrNoStore) {
		if err == nil {
			eng.Close()
		}
		t.Fatalf("Open after refused Create = %v, want ErrNoStore", err)
	}
}

// TestMutatePersistWALBatchBytesFrozen pins the WAL encoding of a
// committed batch holding one op of each kind: recovery and the
// replication feed decode exactly these bytes, so a store written
// before a refactor must still open after it.
func TestMutatePersistWALBatchBytesFrozen(t *testing.T) {
	kg, err := pub.Load(strings.NewReader("<a> <l> <b> .\n"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	eng, err := pub.Create(dir, kg, mutOpts)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	batch := []pub.Mutation{
		{Op: pub.OpAddEdge, Subject: "b", Label: "m", Object: "c"},
		{Op: pub.OpDeleteEdge, Subject: "a", Label: "l", Object: "b"},
		{Op: pub.OpAddVertex, Subject: "d"},
		{Op: pub.OpAddLabel, Label: "n"},
	}
	if _, err := eng.Apply(context.Background(), batch); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if err := eng.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	wal, recs, err := segment.OpenWAL(segment.WALPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer wal.Close()
	if len(recs) != 1 || recs[0].Kind != segment.RecordBatch || recs[0].Seq != 1 {
		t.Fatalf("wal records = %+v, want one batch at epoch 1", recs)
	}
	const want = "04000000010100000062010000006d0100000063020100000061010000006c010000006203010000006400000000000000000400000000010000006e00000000"
	if got := hex.EncodeToString(recs[0].Payload); got != want {
		t.Fatalf("wal batch payload changed:\n got: %s\nwant: %s", got, want)
	}
}
