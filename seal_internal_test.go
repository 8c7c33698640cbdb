package lscr

import (
	"context"
	"fmt"
	"os"
	"slices"
	"testing"

	"lscr/internal/graph"
	"lscr/internal/segment"
)

// TestReplicaSealMatchesWriter pins the one meaning of a seal record. A
// persistent writer compacts while two batches race the rebuild — an
// insert out of one landmark, then a delete out of the same landmark.
// The writer's catch-up maintains both in one call; a replica replaying
// them one by one must dirty exactly the same landmarks. Every engine
// that replays the seal must land on the writer's state:
//
//   - (a) a replica opened on the pre-compaction segment and fed the
//     feed record by record, checked at every epoch the writer published;
//   - (b) a replica opened on the post-seal segment;
//   - (c) Open on a copy of the directory;
//   - (d) Open on a copy taken between the durable seal record and the
//     segment rename — the state a failed seg-rename leaves.
//
// Matching is the whole serving state: epoch and overlay size, index
// structure, ordered triples, and answers and Stats of INS,
// UIS and UIS* over the whole label universe.
func TestReplicaSealMatchesWriter(t *testing.T) {
	kg, _ := maintSeed(11, 40, 3, 200, 0, 0)
	opts := Options{Landmarks: 8, IndexSeed: 7, CompactAfter: -1}
	dir := t.TempDir()
	w, err := Create(dir, kg, opts)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	defer w.Close()
	ctx := context.Background()

	// churn is an insert out of the i-th landmark with out-edges, into a
	// vertex and through a label the batch interns, then the delete of
	// that landmark's first original out-edge.
	g := w.KG().Graph()
	var sources []graph.VertexID
	for _, u := range w.current().idx.Landmarks() {
		if len(g.Out(u)) > 0 {
			sources = append(sources, u)
		}
	}
	churn := func(i int) [][]Mutation {
		u := sources[i]
		e := g.Out(u)[0]
		return [][]Mutation{
			{{Op: OpAddEdge, Subject: g.VertexName(u), Label: fmt.Sprintf("new%d", i), Object: fmt.Sprintf("fresh%d", i)}},
			{{Op: OpDeleteEdge, Subject: g.VertexName(u), Label: g.LabelName(e.Label), Object: g.VertexName(e.To)}},
		}
	}

	published := map[uint64]*Engine{}
	record := func() {
		ep := w.current()
		published[ep.seq] = sealSnapshot(ep)
	}
	record()
	seg0, err := os.ReadFile(segment.PathFor(dir, 0))
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range churn(0) {
		if _, err := w.Apply(ctx, b); err != nil {
			t.Fatal(err)
		}
		record()
	}

	var feed []ReplicationBatch
	var renameFailed string
	compactBarrier = func() {
		compactBarrier = nil
		for _, b := range churn(1) {
			if _, err := w.Apply(ctx, b); err != nil {
				t.Errorf("apply during compaction: %v", err)
			}
			record()
		}
	}
	sealBarrier = func() {
		sealBarrier = nil
		renameFailed = persistCopyDir(t, dir)
		if feed, err = w.ReplicationRead(0, 0); err != nil {
			t.Errorf("ReplicationRead: %v", err)
		}
	}
	defer func() { compactBarrier, sealBarrier = nil, nil }()
	if did, err := w.Compact(ctx); err != nil || !did {
		t.Fatalf("Compact = %v, %v", did, err)
	}
	record()
	head := w.Epoch().Epoch
	if len(feed) != int(head) || !feed[head-1].Seal || feed[head-1].Base != head-3 {
		t.Fatalf("feed %+v does not end in a seal over epoch %d", feed, head-3)
	}

	// (a) Record by record from the pre-compaction segment.
	a, err := OpenReplicaSegment(seg0, opts)
	if err != nil {
		t.Fatal(err)
	}
	sealMatch(t, "pre-compaction replica at epoch 0", published[0], a)
	for _, rb := range feed {
		if err := a.ApplyReplicated(ctx, rb); err != nil {
			t.Fatalf("pre-compaction replica, epoch %d: %v", rb.Epoch, err)
		}
		sealMatch(t, fmt.Sprintf("pre-compaction replica at epoch %d", rb.Epoch), published[rb.Epoch], a)
	}

	// (b) From the post-seal segment, tailing the raced batches and the
	// seal above it.
	f, base, err := w.SegmentFile()
	if err != nil {
		t.Fatal(err)
	}
	seg, err := os.ReadFile(f.Name())
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	b, err := OpenReplicaSegment(seg, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, rb := range feed[base:] {
		if err := b.ApplyReplicated(ctx, rb); err != nil {
			t.Fatalf("post-seal replica, epoch %d: %v", rb.Epoch, err)
		}
	}
	sealMatch(t, "post-seal replica", w, b)

	// (c) and (d): recovery from the published segment and from the one
	// before it.
	for name, d := range map[string]string{"reopened copy": persistCopyDir(t, dir), "copy after a failed rename": renameFailed} {
		rec, err := Open(d, opts)
		if err != nil {
			t.Fatalf("%s: Open: %v", name, err)
		}
		sealMatch(t, name, w, rec)
		rec.Close()
	}
}

// sealSnapshot wraps one published epoch in a throwaway engine, so the
// writer's past epochs answer through the public query path.
func sealSnapshot(ep *epoch) *Engine {
	e := &Engine{}
	e.ep.Store(ep)
	return e
}

// sealMatch requires got to serve exactly want's state.
func sealMatch(t *testing.T, name string, want, got *Engine) {
	t.Helper()
	we, ge := want.current(), got.current()
	wi, gi := want.Epoch(), got.Epoch()
	if wi.Epoch != gi.Epoch || wi.OverlayOps != gi.OverlayOps {
		t.Fatalf("%s: epoch %+v, writer %+v", name, gi, wi)
	}
	if err := we.idx.EqualStructure(ge.idx); err != nil {
		t.Fatalf("%s: index differs from the writer's: %v", name, err)
	}
	if w, g := sealTriples(we.kg.g), sealTriples(ge.kg.g); !slices.Equal(w, g) || we.kg.g.Cut() != ge.kg.g.Cut() {
		t.Fatalf("%s: graph differs from the writer's", name)
	}
	reqs := sealRequests()
	wa := want.QueryBatch(context.Background(), reqs, BatchOptions{Concurrency: 2})
	ga := got.QueryBatch(context.Background(), reqs, BatchOptions{Concurrency: 2})
	for i := range reqs {
		if err := maintOutcomeEqual(ga[i], wa[i], true); err != nil {
			t.Fatalf("%s: request %d (%v): %v", name, i, reqs[i].Algorithm, err)
		}
	}
}

func sealTriples(g *graph.Graph) []graph.Triple {
	var out []graph.Triple
	g.Triples(func(tr graph.Triple) bool {
		out = append(out, tr)
		return true
	})
	return out
}

// sealRequests runs INS, UIS and UIS* over the whole label universe.
func sealRequests() []Request {
	consts := []string{
		`SELECT ?x WHERE { ?x <l0> ?y. }`,
		`SELECT ?x WHERE { ?x <l1> ?y. ?y <l2> ?z. }`,
		`SELECT ?x WHERE { <v2> <l1> ?x. }`,
	}
	var reqs []Request
	for i := 0; i < 12; i++ {
		for _, algo := range []Algorithm{INS, UIS, UISStar} {
			reqs = append(reqs, Request{
				Source:     fmt.Sprintf("v%d", (i*7)%40),
				Target:     fmt.Sprintf("v%d", (i*13+5)%40),
				Constraint: consts[i%len(consts)],
				Algorithm:  algo,
			})
		}
	}
	return reqs
}
