package lscr

import (
	"context"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Kill-point coverage for the two crash windows *inside* a persistent
// compaction, produced deterministically through the compactBarrier and
// sealBarrier seams:
//
//   - window A (compactBarrier): the rebuilt segment image exists only
//     as a .tmp file and the WAL carries no seal record. Recovery must
//     ignore the stray temp and replay the full batch tail onto the old
//     segment — the pre-compaction state, answer-identical to the live
//     engine.
//   - window B (sealBarrier): the seal record is durable and the epoch
//     swapped, but the image was never renamed into place. Recovery
//     replays the batches and then the seal, folding the prefix the
//     record names as the live compaction did — the exact
//     post-compaction epoch, overlay and INS statistics included.
//
// The name carries "Mutate" so the race-enabled CI tier runs it.
func TestMutateCrashRecoveryCompactionWindows(t *testing.T) {
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
	defer eng.Close()
	ctx := context.Background()

	batches := [][]Mutation{
		{
			{Op: OpAddEdge, Subject: "d", Label: "l", Object: "e"},
			{Op: OpDeleteEdge, Subject: "c", Label: "m", Object: "d"},
		},
		{
			{Op: OpAddEdge, Subject: "e", Label: "l", Object: "f"},
			{Op: OpAddEdge, Subject: "b", Label: "m", Object: "f"},
		},
	}
	for i, batch := range batches {
		if _, err := eng.Apply(ctx, batch); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
	}

	var crashA, crashB string
	compactBarrier = func() {
		compactBarrier = nil
		crashA = persistCopyDir(t, dir)
	}
	sealBarrier = func() {
		sealBarrier = nil
		crashB = persistCopyDir(t, dir)
	}
	defer func() { compactBarrier, sealBarrier = nil, nil }()
	if did, err := eng.Compact(ctx); err != nil || !did {
		t.Fatalf("Compact = %v, %v", did, err)
	}
	if crashA == "" || crashB == "" {
		t.Fatal("barriers did not fire")
	}

	liveEpoch := eng.Epoch().Epoch
	reqs := persistCrashRequests()
	want := eng.QueryBatch(ctx, reqs, BatchOptions{Concurrency: 2})

	liveOps := eng.Epoch().OverlayOps
	for _, tc := range []struct {
		name      string
		dir       string
		wantEpoch uint64
		// exact: the recovered engine is the live one — same overlay,
		// same Stats — not only answer-identical.
		exact bool
	}{
		{"before-seal", crashA, liveEpoch - 1, false},
		{"after-seal", crashB, liveEpoch, true},
	} {
		rec, err := Open(tc.dir, opts)
		if err != nil {
			t.Fatalf("%s: recovery Open: %v", tc.name, err)
		}
		if got := rec.Epoch().Epoch; got != tc.wantEpoch {
			rec.Close()
			t.Fatalf("%s: recovered epoch %d, want %d", tc.name, got, tc.wantEpoch)
		}
		if got := rec.Epoch().OverlayOps; tc.exact && got != liveOps {
			t.Errorf("%s: recovered overlay holds %d ops, live %d", tc.name, got, liveOps)
		}
		got := rec.QueryBatch(ctx, reqs, BatchOptions{Concurrency: 2})
		for i := range reqs {
			if (got[i].Err == nil) != (want[i].Err == nil) {
				t.Errorf("%s: request %d error mismatch: %v vs %v", tc.name, i, got[i].Err, want[i].Err)
				continue
			}
			if got[i].Err == nil && got[i].Response.Reachable != want[i].Response.Reachable {
				t.Errorf("%s: request %d (%v): reachable %v, live says %v",
					tc.name, i, reqs[i].Algorithm, got[i].Response.Reachable, want[i].Response.Reachable)
			}
			if got[i].Err == nil && tc.exact && got[i].Response.Stats != want[i].Response.Stats {
				t.Errorf("%s: request %d (%v): stats %+v, live %+v",
					tc.name, i, reqs[i].Algorithm, got[i].Response.Stats, want[i].Response.Stats)
			}
		}
		// The recovered engine keeps accepting durable writes.
		if _, err := rec.Apply(ctx, []Mutation{{Op: OpAddEdge, Subject: "f", Label: "m", Object: "a"}}); err != nil {
			t.Errorf("%s: Apply after recovery: %v", tc.name, err)
		} else if got := rec.Epoch().Epoch; got != tc.wantEpoch+1 {
			t.Errorf("%s: post-recovery Apply epoch %d, want %d", tc.name, got, tc.wantEpoch+1)
		}
		rec.Close()
		if t.Failed() {
			t.FailNow()
		}
	}
}

func persistCrashRequests() []Request {
	pairs := [][2]string{{"a", "d"}, {"a", "f"}, {"e", "c"}, {"d", "b"}}
	algos := []Algorithm{INS, UIS, UISStar, Conjunctive}
	var reqs []Request
	for i, p := range pairs {
		for _, algo := range algos {
			req := Request{Source: p[0], Target: p[1], Algorithm: algo}
			if i%2 == 0 {
				req.Labels = []string{"l"}
			}
			if algo == Conjunctive {
				req.Constraints = []string{`SELECT ?x WHERE { ?x <l> <b>. }`}
			} else {
				req.Constraint = `SELECT ?x WHERE { <a> <l> ?x. }`
			}
			reqs = append(reqs, req)
		}
	}
	return reqs
}

func persistCopyDir(t *testing.T, src string) string {
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
