package lscr

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"lscr/internal/failpoint"
	"lscr/internal/segment"
)

// Fail-stop contract (see poison.go): an injected WAL/segment write
// error must surface as the write error itself, pin the engine in
// ErrPoisoned for every later Apply/Compact, leave reads serving the
// last published epoch, and be fully recoverable by a restart. The
// names carry "Failstop" so the race-enabled CI tier runs them.

func failstopEngine(t *testing.T) (*Engine, string, Options) {
	t.Helper()
	failpoint.DisarmAll()
	t.Cleanup(failpoint.DisarmAll)
	kg, err := Load(strings.NewReader(`
<a> <l> <b> .
<b> <l> <c> .
<c> <m> <d> .
<d> <l> <a> .
<e> <m> <b> .
`))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	opts := Options{Landmarks: 4, IndexSeed: 1, CompactAfter: -1}
	eng, err := Create(dir, kg, opts)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	return eng, dir, opts
}

func failstopCompare(t *testing.T, name string, got, want []QueryOutcome, reqs []Request) {
	t.Helper()
	for i := range reqs {
		if (got[i].Err == nil) != (want[i].Err == nil) {
			t.Fatalf("%s: request %d error mismatch: %v vs %v", name, i, got[i].Err, want[i].Err)
		}
		if got[i].Err == nil && (got[i].Response.Reachable != want[i].Response.Reachable ||
			got[i].Response.Stats != want[i].Response.Stats) {
			t.Fatalf("%s: request %d diverged: %+v vs %+v", name, i, got[i].Response, want[i].Response)
		}
	}
}

func TestFailstopApplyWALErrorPoisonsAndRecovers(t *testing.T) {
	eng, dir, opts := failstopEngine(t)
	defer eng.Close()
	ctx := context.Background()

	if _, err := eng.Apply(ctx, []Mutation{{Op: OpAddEdge, Subject: "d", Label: "l", Object: "e"}}); err != nil {
		t.Fatalf("batch 1: %v", err)
	}
	ackedEpoch := eng.Epoch().Epoch
	ackedMaint := eng.IndexMaintenance()
	if !ackedMaint.Enabled || ackedMaint.Batches != 1 {
		t.Fatalf("maintenance after batch 1 = %+v, want enabled with 1 batch", ackedMaint)
	}
	reqs := persistCrashRequests()
	want := eng.QueryBatch(ctx, reqs, BatchOptions{Concurrency: 2})

	// The write error itself comes back — not ErrPoisoned — and nothing
	// is published, nor counted as a maintained batch.
	if err := failpoint.Set(segment.FPWALAppend, "error-once"); err != nil {
		t.Fatal(err)
	}
	_, err := eng.Apply(ctx, []Mutation{{Op: OpAddEdge, Subject: "e", Label: "l", Object: "f"}})
	if !errors.Is(err, failpoint.ErrInjected) {
		t.Fatalf("failing Apply = %v, want the injected write error", err)
	}
	if errors.Is(err, ErrPoisoned) {
		t.Fatalf("failing Apply returned ErrPoisoned, want the raw write error: %v", err)
	}
	if got := eng.Epoch().Epoch; got != ackedEpoch {
		t.Fatalf("failed Apply advanced epoch to %d, want %d", got, ackedEpoch)
	}
	if got := eng.IndexMaintenance(); got != ackedMaint {
		t.Fatalf("failed Apply changed maintenance stats to %+v, want %+v", got, ackedMaint)
	}

	// Every later mutation is refused with the typed sentinel.
	if _, err := eng.Apply(ctx, []Mutation{{Op: OpAddEdge, Subject: "b", Label: "m", Object: "f"}}); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("Apply after poison = %v, want ErrPoisoned", err)
	}
	if _, err := eng.Compact(ctx); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("Compact after poison = %v, want ErrPoisoned", err)
	}
	if cause := eng.Poisoned(); !errors.Is(cause, failpoint.ErrInjected) {
		t.Fatalf("Poisoned() = %v, want the injected cause", cause)
	}

	// Reads keep serving the last published epoch, bit-identically.
	failstopCompare(t, "poisoned reads", eng.QueryBatch(ctx, reqs, BatchOptions{Concurrency: 2}), want, reqs)

	// Restart recovers the acknowledged prefix exactly and is writable.
	failpoint.DisarmAll()
	if err := eng.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	rec, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("recovery Open: %v", err)
	}
	defer rec.Close()
	if got := rec.Epoch().Epoch; got != ackedEpoch {
		t.Fatalf("recovered epoch %d, want %d", got, ackedEpoch)
	}
	failstopCompare(t, "recovered reads", rec.QueryBatch(ctx, reqs, BatchOptions{Concurrency: 2}), want, reqs)
	if rec.Poisoned() != nil {
		t.Fatalf("recovered engine still poisoned: %v", rec.Poisoned())
	}
	if _, err := rec.Apply(ctx, []Mutation{{Op: OpAddEdge, Subject: "e", Label: "l", Object: "f"}}); err != nil {
		t.Fatalf("Apply after recovery: %v", err)
	}
}

func TestFailstopWALSyncErrorRecoversDurableRecord(t *testing.T) {
	// An fsync that fails *after* the record bytes reached the file is
	// the ambiguous window: the batch was never acknowledged, but a
	// restart may legitimately find it intact and replay it. The
	// contract is prefix-exactness, so recovery must land either on the
	// acknowledged epoch or on acknowledged+1 with exactly that batch
	// applied — never anything else.
	failpoint.DisarmAll()
	t.Cleanup(failpoint.DisarmAll)
	const triples = `
<a> <l> <b> .
<b> <l> <c> .
<c> <m> <d> .
<d> <l> <a> .
<e> <m> <b> .
`
	kg, err := Load(strings.NewReader(triples))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	opts := Options{Landmarks: 4, IndexSeed: 1, CompactAfter: -1}
	eng, err := Create(dir, kg, opts)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	defer eng.Close()
	ctx := context.Background()

	batch1 := []Mutation{{Op: OpAddEdge, Subject: "d", Label: "l", Object: "e"}}
	pending := []Mutation{{Op: OpAddEdge, Subject: "e", Label: "l", Object: "f"}}
	if _, err := eng.Apply(ctx, batch1); err != nil {
		t.Fatal(err)
	}
	ackedEpoch := eng.Epoch().Epoch

	if err := failpoint.Set(segment.FPWALSync, "error-once"); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Apply(ctx, pending); !errors.Is(err, failpoint.ErrInjected) {
		t.Fatalf("failing Apply = %v, want injected error", err)
	}
	if _, err := eng.Apply(ctx, pending); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("Apply after poison = %v, want ErrPoisoned", err)
	}

	failpoint.DisarmAll()
	eng.Close()
	rec, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("recovery Open: %v", err)
	}
	defer rec.Close()
	reqs := persistCrashRequests()

	// An in-memory oracle built from the same triples: the mutate
	// equivalence tier pins that the commit path is deterministic, so it
	// answers exactly as the writer would at each epoch.
	oracleKG, err := Load(strings.NewReader(triples))
	if err != nil {
		t.Fatal(err)
	}
	oracle := NewEngine(oracleKG, opts)
	if _, err := oracle.Apply(ctx, batch1); err != nil {
		t.Fatal(err)
	}

	switch got := rec.Epoch().Epoch; got {
	case ackedEpoch:
		// The record did not survive; the acknowledged prefix is served.
	case ackedEpoch + 1:
		// The record survived its failed fsync; recovery replayed it.
		if _, err := oracle.Apply(ctx, pending); err != nil {
			t.Fatal(err)
		}
	default:
		t.Fatalf("recovered epoch %d, want %d or %d", got, ackedEpoch, ackedEpoch+1)
	}
	failstopCompare(t, "recovered reads",
		rec.QueryBatch(ctx, reqs, BatchOptions{Concurrency: 2}),
		oracle.QueryBatch(ctx, reqs, BatchOptions{Concurrency: 2}), reqs)
}

func TestFailstopCompactSealErrorPoisonsAndRecovers(t *testing.T) {
	eng, dir, opts := failstopEngine(t)
	defer eng.Close()
	ctx := context.Background()

	batches := [][]Mutation{
		{{Op: OpAddEdge, Subject: "d", Label: "l", Object: "e"}},
		{{Op: OpAddEdge, Subject: "e", Label: "l", Object: "f"}},
	}
	for i, b := range batches {
		if _, err := eng.Apply(ctx, b); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
	}
	ackedEpoch := eng.Epoch().Epoch
	reqs := persistCrashRequests()
	want := eng.QueryBatch(ctx, reqs, BatchOptions{Concurrency: 2})

	// The rename that publishes the sealed image fails: the epoch has
	// already swapped in memory (the seal record is durable), so reads
	// advance but the engine must fail stop for writes.
	if err := failpoint.Set(segment.FPSegRename, "error-once"); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Compact(ctx); !errors.Is(err, failpoint.ErrInjected) {
		t.Fatalf("Compact = %v, want injected error", err)
	}
	if _, err := eng.Apply(ctx, []Mutation{{Op: OpAddEdge, Subject: "b", Label: "m", Object: "f"}}); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("Apply after failed seal = %v, want ErrPoisoned", err)
	}
	sealed, sealedOps := eng.QueryBatch(ctx, reqs, BatchOptions{Concurrency: 2}), eng.Epoch().OverlayOps
	failstopCompare(t, "poisoned reads", sealed, want, reqs)

	// Restart: the seal record is durable but the image never appeared —
	// crash window B. Recovery replays the batches plus the seal, which
	// folds the prefix it names, and must serve the post-seal epoch the
	// poisoned engine served: same overlay, same answers and Stats.
	failpoint.DisarmAll()
	eng.Close()
	rec, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("recovery Open: %v", err)
	}
	defer rec.Close()
	if got := rec.Epoch().Epoch; got != ackedEpoch+1 {
		t.Fatalf("recovered epoch %d, want %d (batches + durable seal)", got, ackedEpoch+1)
	}
	if got := rec.Epoch().OverlayOps; got != sealedOps {
		t.Fatalf("recovered overlay holds %d ops, the sealed engine %d", got, sealedOps)
	}
	failstopCompare(t, "recovered reads", rec.QueryBatch(ctx, reqs, BatchOptions{Concurrency: 2}), sealed, reqs)
	// And the recovered engine can seal successfully this time.
	if _, err := rec.Apply(ctx, []Mutation{{Op: OpAddEdge, Subject: "f", Label: "l", Object: "a"}}); err != nil {
		t.Fatalf("Apply after recovery: %v", err)
	}
	if did, err := rec.Compact(ctx); err != nil || !did {
		t.Fatalf("Compact after recovery = %v, %v", did, err)
	}
}

func TestFailstopBackgroundCompactionPoisonsWithoutPanic(t *testing.T) {
	failpoint.DisarmAll()
	t.Cleanup(failpoint.DisarmAll)
	kg, err := Load(strings.NewReader(`
<a> <l> <b> .
<b> <l> <c> .
`))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	opts := Options{Landmarks: 2, IndexSeed: 1, CompactAfter: 2}
	eng, err := Create(dir, kg, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ctx := context.Background()

	if err := failpoint.Set(segment.FPSegSync, "error-once"); err != nil {
		t.Fatal(err)
	}
	// Cross the threshold: the background compactor hits the segment
	// fsync failure. Pre-PR behaviour was a process panic; now it must
	// poison quietly.
	if _, err := eng.Apply(ctx, []Mutation{
		{Op: OpAddEdge, Subject: "c", Label: "l", Object: "d"},
		{Op: OpAddEdge, Subject: "d", Label: "l", Object: "e"},
	}); err != nil {
		t.Fatalf("threshold Apply: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for eng.Poisoned() == nil {
		if time.Now().After(deadline) {
			t.Fatal("background compaction failure never poisoned the engine")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !errors.Is(eng.Poisoned(), failpoint.ErrInjected) {
		t.Fatalf("Poisoned() = %v, want injected cause", eng.Poisoned())
	}
	// Reads still answer on the poisoned engine.
	if _, err := eng.Query(ctx, Request{Source: "a", Target: "c", Constraint: `SELECT ?x WHERE { <a> <l> ?x. }`}); err != nil {
		t.Fatalf("read on poisoned engine: %v", err)
	}
}
