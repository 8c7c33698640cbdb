package lscr_test

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	pub "lscr"
	"lscr/internal/graph"
)

// The mutate equivalence tier: after every prefix of a random mutation
// script, the live engine must answer exactly like an engine rebuilt
// from scratch on that prefix's final edge set.
//
//   - On an uncompacted overlay, the index-free algorithms (UIS, UIS*,
//     Conjunctive) must be bit-identical — Reachable, Stats and
//     SatisfyingVertices — because the overlay view is observationally
//     identical to the rebuilt CSR; INS (whose Stats depend on the
//     compaction-rebuilt index) must agree on Reachable.
//   - After Engine.Compact, all four algorithms must be bit-identical:
//     compaction preserves IDs and the index build is deterministic per
//     (graph, seed), so the compacted engine IS the rebuilt engine.
//
// The test names carry "Mutate" so the race-enabled CI tier picks them
// up; TestMutateConcurrentApplyQuery additionally runs queries
// concurrently with Apply and compaction swaps under -race.

// mutEdge is one edge in terms of names.
type mutEdge struct{ s, l, t string }

// mutModel is the test-side ground truth the engine must match: the
// dictionaries in intern order and the surviving edge multiset. It is
// maintained independently of the engine, mutation by mutation, and
// rebuilt from scratch through a Builder per prefix.
type mutModel struct {
	vertices []string
	vset     map[string]bool
	labels   []string
	lset     map[string]bool
	edges    []mutEdge
}

func newMutModel() *mutModel {
	return &mutModel{vset: make(map[string]bool), lset: make(map[string]bool)}
}

func (m *mutModel) vertex(name string) {
	if !m.vset[name] {
		m.vset[name] = true
		m.vertices = append(m.vertices, name)
	}
}

func (m *mutModel) label(name string) {
	if !m.lset[name] {
		m.lset[name] = true
		m.labels = append(m.labels, name)
	}
}

// apply mirrors one engine mutation into the model. Interning order
// matches the engine's (subject, label, object — see Delta.AddEdgeNames).
func (m *mutModel) apply(mut pub.Mutation) {
	switch mut.Op {
	case pub.OpAddEdge:
		m.vertex(mut.Subject)
		m.label(mut.Label)
		m.vertex(mut.Object)
		m.edges = append(m.edges, mutEdge{mut.Subject, mut.Label, mut.Object})
	case pub.OpDeleteEdge:
		for i, e := range m.edges {
			if e == (mutEdge{mut.Subject, mut.Label, mut.Object}) {
				m.edges = append(m.edges[:i], m.edges[i+1:]...)
				break
			}
		}
	case pub.OpAddVertex:
		m.vertex(mut.Subject)
	case pub.OpAddLabel:
		m.label(mut.Label)
	}
}

// build rebuilds the model's graph from scratch — "an engine rebuilt on
// the final edge set", with the same dictionaries in the same ID order.
func (m *mutModel) build() *graph.Graph {
	b := graph.NewBuilder()
	for _, l := range m.labels {
		b.Label(l)
	}
	for _, v := range m.vertices {
		b.Vertex(v)
	}
	for _, e := range m.edges {
		b.AddEdgeNames(e.s, e.l, e.t)
	}
	return b.Build()
}

// mutSeedGraph builds the deterministic base graph and the model
// mirroring it. The graph has no rdf:type edges, so landmark selection
// runs in degree order.
func mutSeedGraph(seed int64, n, nLabels, nEdges int) (*graph.Graph, *mutModel) {
	rng := rand.New(rand.NewSource(seed))
	m := newMutModel()
	for i := 0; i < nLabels; i++ {
		m.label(fmt.Sprintf("l%d", i))
	}
	for i := 0; i < n; i++ {
		m.vertex(fmt.Sprintf("v%d", i))
	}
	for i := 0; i < nEdges; i++ {
		m.edges = append(m.edges, mutEdge{
			fmt.Sprintf("v%d", rng.Intn(n)),
			fmt.Sprintf("l%d", rng.Intn(nLabels)),
			fmt.Sprintf("v%d", rng.Intn(n)),
		})
	}
	return m.build(), m
}

// mutScript derives a deterministic mutation script: batches of edge
// insertions (sometimes via brand-new vertices and labels) and
// deletions of surviving edges, tracked against a shadow copy of the
// model so deletes always target present instances.
func mutScript(seed int64, m *mutModel, batches, opsPerBatch int) [][]pub.Mutation {
	rng := rand.New(rand.NewSource(seed))
	shadow := newMutModel()
	for _, l := range m.labels {
		shadow.label(l)
	}
	for _, v := range m.vertices {
		shadow.vertex(v)
	}
	shadow.edges = append(shadow.edges, m.edges...)

	var script [][]pub.Mutation
	for bi := 0; bi < batches; bi++ {
		var batch []pub.Mutation
		for oi := 0; oi < opsPerBatch; oi++ {
			var mut pub.Mutation
			switch {
			case len(shadow.edges) > 0 && rng.Intn(3) == 0:
				e := shadow.edges[rng.Intn(len(shadow.edges))]
				mut = pub.Mutation{Op: pub.OpDeleteEdge, Subject: e.s, Label: e.l, Object: e.t}
			case rng.Intn(8) == 0:
				mut = pub.Mutation{Op: pub.OpAddVertex, Subject: fmt.Sprintf("iso%d_%d", bi, oi)}
			default:
				s := shadow.vertices[rng.Intn(len(shadow.vertices))]
				t := shadow.vertices[rng.Intn(len(shadow.vertices))]
				if rng.Intn(5) == 0 {
					s = fmt.Sprintf("w%d_%d", bi, oi)
				}
				l := shadow.labels[rng.Intn(len(shadow.labels))]
				mut = pub.Mutation{Op: pub.OpAddEdge, Subject: s, Label: l, Object: t}
			}
			shadow.apply(mut)
			batch = append(batch, mut)
		}
		script = append(script, batch)
	}
	return script
}

// mutRequests builds the fixed query workload: every algorithm over a
// grid of endpoints, label subsets and substructure constraints.
func mutRequests(n, nLabels int) []pub.Request {
	consts := []string{
		`SELECT ?x WHERE { ?x <l0> <v1>. }`,
		`SELECT ?x WHERE { <v2> <l1> ?x. }`,
		`SELECT ?x WHERE { ?x <l0> ?y. ?y <l1> <v3>. }`,
	}
	algos := []pub.Algorithm{pub.INS, pub.UIS, pub.UISStar, pub.Conjunctive}
	var reqs []pub.Request
	for i := 0; i < 32; i++ {
		req := pub.Request{
			Source:    fmt.Sprintf("v%d", (i*7)%n),
			Target:    fmt.Sprintf("v%d", (i*13+5)%n),
			Algorithm: algos[i%len(algos)],
		}
		if i%3 != 0 {
			req.Labels = []string{fmt.Sprintf("l%d", i%nLabels)}
			if i%2 == 0 {
				req.Labels = append(req.Labels, fmt.Sprintf("l%d", (i+1)%nLabels))
			}
		}
		if req.Algorithm == pub.Conjunctive {
			req.Constraints = []string{consts[i%len(consts)], consts[(i+1)%len(consts)]}
		} else {
			req.Constraint = consts[i%len(consts)]
		}
		reqs = append(reqs, req)
	}
	return reqs
}

var mutOpts = pub.Options{Landmarks: 24, IndexSeed: 7, CompactAfter: -1}

// answersEqual compares two query outcomes; withStats demands
// bit-identical Stats and SatisfyingVertices, not just the answer.
func answersEqual(a, b pub.QueryOutcome, withStats bool) error {
	if (a.Err == nil) != (b.Err == nil) {
		return fmt.Errorf("error mismatch: %v vs %v", a.Err, b.Err)
	}
	if a.Err != nil {
		if a.Err.Error() != b.Err.Error() {
			return fmt.Errorf("error text mismatch: %v vs %v", a.Err, b.Err)
		}
		return nil
	}
	if a.Response.Reachable != b.Response.Reachable {
		return fmt.Errorf("reachable %v vs %v", a.Response.Reachable, b.Response.Reachable)
	}
	if withStats {
		if a.Response.Stats != b.Response.Stats || a.Response.SatisfyingVertices != b.Response.SatisfyingVertices {
			return fmt.Errorf("stats {%+v vs=%d} vs {%+v vs=%d}",
				a.Response.Stats, a.Response.SatisfyingVertices,
				b.Response.Stats, b.Response.SatisfyingVertices)
		}
	}
	return nil
}

// TestMutatePrefixEquivalence is the core tier: at every script prefix,
// the live engine equals a from-scratch rebuild — index-free algorithms
// bit-identically even on the uncompacted overlay, all four algorithms
// bit-identically after Compact.
func TestMutatePrefixEquivalence(t *testing.T) {
	const n, nLabels = 60, 4
	g0, model := mutSeedGraph(101, n, nLabels, 360)
	eng := pub.NewEngine(pub.FromGraph(g0), mutOpts)
	script := mutScript(202, model, 10, 12)
	reqs := mutRequests(n, nLabels)
	ctx := context.Background()
	bo := pub.BatchOptions{Concurrency: 4}

	for step, batch := range script {
		res, err := eng.Apply(ctx, batch)
		if err != nil {
			t.Fatalf("step %d: Apply: %v", step, err)
		}
		if res.Epoch == 0 {
			t.Fatalf("step %d: epoch not advanced", step)
		}
		for _, mut := range batch {
			model.apply(mut)
		}
		rebuilt := pub.NewEngine(pub.FromGraph(model.build()), mutOpts)
		want := rebuilt.QueryBatch(ctx, reqs, bo)

		// Overlay mode: UIS/UIS*/Conjunctive bit-identical, INS exact.
		if eng.Epoch().OverlayOps == 0 {
			t.Fatalf("step %d: expected an uncompacted overlay", step)
		}
		got := eng.QueryBatch(ctx, reqs, bo)
		for i := range reqs {
			withStats := reqs[i].Algorithm != pub.INS
			if err := answersEqual(got[i], want[i], withStats); err != nil {
				t.Errorf("step %d overlay, request %d (%v): %v", step, i, reqs[i].Algorithm, err)
			}
		}

		// Compacted: everything bit-identical, including INS Stats.
		if did, err := eng.Compact(ctx); err != nil || !did {
			t.Fatalf("step %d: Compact = %v, %v", step, did, err)
		}
		if ops := eng.Epoch().OverlayOps; ops != 0 {
			t.Fatalf("step %d: %d overlay ops survived compaction", step, ops)
		}
		got = eng.QueryBatch(ctx, reqs, bo)
		for i := range reqs {
			if err := answersEqual(got[i], want[i], true); err != nil {
				t.Errorf("step %d compacted, request %d (%v): %v", step, i, reqs[i].Algorithm, err)
			}
		}
		if t.Failed() {
			t.FailNow()
		}

		// KG view bookkeeping agrees with the model.
		kg := eng.KG()
		if kg.NumVertices() != len(model.vertices) || kg.NumEdges() != len(model.edges) || kg.NumLabels() != len(model.labels) {
			t.Fatalf("step %d: KG dims (%d,%d,%d) != model (%d,%d,%d)", step,
				kg.NumVertices(), kg.NumEdges(), kg.NumLabels(),
				len(model.vertices), len(model.edges), len(model.labels))
		}
	}
}

// TestMutatePrefixEquivalenceOverlayChain is the same equivalence with
// no compaction at all: the overlay chains across every batch, proving
// long overlay histories stay observationally exact.
func TestMutatePrefixEquivalenceOverlayChain(t *testing.T) {
	const n, nLabels = 50, 3
	g0, model := mutSeedGraph(33, n, nLabels, 280)
	eng := pub.NewEngine(pub.FromGraph(g0), mutOpts)
	script := mutScript(44, model, 8, 10)
	reqs := mutRequests(n, nLabels)
	ctx := context.Background()
	bo := pub.BatchOptions{Concurrency: 4}

	for step, batch := range script {
		if _, err := eng.Apply(ctx, batch); err != nil {
			t.Fatalf("step %d: Apply: %v", step, err)
		}
		for _, mut := range batch {
			model.apply(mut)
		}
		rebuilt := pub.NewEngine(pub.FromGraph(model.build()), mutOpts)
		want := rebuilt.QueryBatch(ctx, reqs, bo)
		got := eng.QueryBatch(ctx, reqs, bo)
		for i := range reqs {
			withStats := reqs[i].Algorithm != pub.INS
			if err := answersEqual(got[i], want[i], withStats); err != nil {
				t.Fatalf("step %d, request %d (%v): %v", step, i, reqs[i].Algorithm, err)
			}
		}
	}
	if eng.Epoch().OverlayOps == 0 {
		t.Fatal("chain test never accumulated an overlay")
	}
}

// TestMutateApplyAtomicity pins the all-or-nothing contract: a batch
// that fails validation at its last mutation publishes nothing, even
// though earlier mutations of the same batch were individually valid.
func TestMutateApplyAtomicity(t *testing.T) {
	g0, _ := mutSeedGraph(5, 20, 2, 60)
	eng := pub.NewEngine(pub.FromGraph(g0), mutOpts)
	ctx := context.Background()
	before := eng.Epoch()
	kgBefore := eng.KG()

	_, err := eng.Apply(ctx, []pub.Mutation{
		{Op: pub.OpAddEdge, Subject: "v0", Label: "l0", Object: "nova"},
		{Op: pub.OpDeleteEdge, Subject: "v0", Label: "l0", Object: "no-such-vertex"},
	})
	if err == nil {
		t.Fatal("invalid batch accepted")
	}
	after := eng.Epoch()
	if after.Epoch != before.Epoch || after.OverlayOps != before.OverlayOps {
		t.Fatalf("failed batch changed epoch state: %+v -> %+v", before, after)
	}
	kg := eng.KG()
	if kg != kgBefore {
		t.Fatal("failed batch swapped the KG view")
	}
	if kg.Graph().Vertex("nova") != graph.NoVertex {
		t.Fatal("failed batch leaked an interned vertex")
	}

	// A cancelled context publishes nothing either.
	cctx, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := eng.Apply(cctx, []pub.Mutation{{Op: pub.OpAddVertex, Subject: "x"}}); err == nil {
		t.Fatal("cancelled Apply succeeded")
	}
	if eng.Epoch().Epoch != before.Epoch {
		t.Fatal("cancelled Apply advanced the epoch")
	}
}

// TestMutateConcurrentApplyQuery floods the engine with queries from
// many goroutines while the script commits and compactions swap epochs
// underneath, under -race. Every response observed concurrently must be
// byte-for-byte one of the per-prefix serial answers — i.e. every query
// saw one consistent epoch, never a torn or mixed view.
func TestMutateConcurrentApplyQuery(t *testing.T) {
	// Large enough that probe searches take real time relative to the
	// writer's Apply/Compact cadence, so many queries genuinely span an
	// epoch swap (including the compactor's) mid-flight.
	const n, nLabels = 250, 3
	_, model := mutSeedGraph(71, n, nLabels, 700)
	// The script is derived before "sink" is interned, so no mutation
	// ever touches it: the probe below can never reach it, UIS sweeps
	// the entire reachable set every time, and its PassedVertices is a
	// sharp fingerprint of the exact edge set — the serial pass below
	// records one distinct fingerprint per prefix.
	script := mutScript(72, model, 6, 8)
	model.vertex("sink")
	g0 := model.build()

	// Candidate probes all run UIS (no index dependence), so each
	// Response is a deterministic function of the prefix alone. The
	// serial pass records every candidate's per-prefix fingerprint and
	// the concurrent pass uses the candidate whose fingerprint
	// discriminates the most prefixes — a probe whose answer never moves
	// would validate nothing.
	candidates := make([]pub.Request, 20)
	for i := range candidates {
		candidates[i] = pub.Request{
			Source:     fmt.Sprintf("v%d", i*11),
			Target:     "sink",
			Labels:     []string{fmt.Sprintf("l%d", i%nLabels)},
			Constraint: `SELECT ?x WHERE { ?x <l0> ?y. }`,
			Algorithm:  pub.UIS,
		}
	}

	// probeKey canonicalises a Response down to its deterministic fields
	// (Elapsed is wall clock and must not participate).
	probeKey := func(r pub.Response) string {
		return fmt.Sprintf("%v/%+v/%d", r.Reachable, r.Stats, r.SatisfyingVertices)
	}

	// Serial pass: the exact valid Response set per candidate, one entry
	// per prefix.
	serial := pub.NewEngine(pub.FromGraph(g0), mutOpts)
	ctx := context.Background()
	validSets := make([]map[string]bool, len(candidates))
	record := func() {
		for i, c := range candidates {
			snap, err := serial.Query(ctx, c)
			if err != nil {
				t.Fatal(err)
			}
			if validSets[i] == nil {
				validSets[i] = make(map[string]bool)
			}
			validSets[i][probeKey(snap)] = true
		}
	}
	record()
	for _, batch := range script {
		if _, err := serial.Apply(ctx, batch); err != nil {
			t.Fatal(err)
		}
		record()
	}
	best := 0
	for i := range validSets {
		if len(validSets[i]) > len(validSets[best]) {
			best = i
		}
	}
	probe, valid := candidates[best], validSets[best]
	if len(valid) < 2 {
		t.Fatalf("no candidate probe discriminates any prefix (best has %d fingerprints)", len(valid))
	}

	// Concurrent pass on a fresh engine: readers hammer the probe (and a
	// mixed workload) while the writer applies and compacts.
	eng := pub.NewEngine(pub.FromGraph(g0), mutOpts)
	reqs := mutRequests(n, nLabels)
	var wg sync.WaitGroup
	var probes atomic.Int64
	stop := make(chan struct{})
	errc := make(chan error, 64)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			i := w
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := eng.Query(ctx, probe)
				if err != nil {
					errc <- fmt.Errorf("probe: %v", err)
					return
				}
				if !valid[probeKey(resp)] {
					errc <- fmt.Errorf("probe answered outside every prefix: %+v", resp)
					return
				}
				probes.Add(1)
				if _, err := eng.Query(ctx, reqs[i%len(reqs)]); err != nil {
					errc <- fmt.Errorf("mixed workload: %v", err)
					return
				}
				i++
			}
		}(w)
	}
	for _, batch := range script {
		if _, err := eng.Apply(ctx, batch); err != nil {
			t.Fatalf("Apply under load: %v", err)
		}
		// Compaction rebuilds the CSR and index, so readers keep
		// answering — many mid-swap — while it runs and lands. The
		// writer then waits until at least one more probe completes, so
		// every epoch (overlay and compacted alike) is actually observed
		// under load, even on a single-core scheduler.
		if _, err := eng.Compact(ctx); err != nil {
			t.Fatalf("Compact under load: %v", err)
		}
		waitFrom := probes.Load()
		deadline := time.Now().Add(10 * time.Second)
		for probes.Load() == waitFrom && len(errc) == 0 {
			if time.Now().After(deadline) {
				t.Fatal("readers made no progress for 10s")
			}
			runtime.Gosched()
		}
	}
	close(stop)
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	if probes.Load() == 0 {
		t.Fatal("no probe query completed concurrently with the writer; the test observed nothing")
	}
	t.Logf("%d probe answers validated against %d prefix snapshots", probes.Load(), len(valid))
}

// TestMutateDictionaryOnlyBatchSurvivesCompaction regression-tests the
// compactor's catch-up path for batches that grow only the
// dictionaries: an add-vertex committed while a compaction is
// rebuilding stages no overlay log entry, so a catch-up keyed on log
// length (instead of the epoch sequence) would silently drop the
// vertex when the compacted base swaps in.
func TestMutateDictionaryOnlyBatchSurvivesCompaction(t *testing.T) {
	const n, nLabels = 120, 3
	g0, model := mutSeedGraph(13, n, nLabels, 900)
	eng := pub.NewEngine(pub.FromGraph(g0), mutOpts)
	ctx := context.Background()
	script := mutScript(14, model, 30, 6)

	for i, batch := range script {
		// Create an overlay so the compaction below has real work,
		// then race a dictionary-only batch against it.
		if _, err := eng.Apply(ctx, batch); err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() {
			_, err := eng.Compact(ctx)
			done <- err
		}()
		ghost := fmt.Sprintf("ghost%d", i)
		if _, err := eng.Apply(ctx, []pub.Mutation{{Op: pub.OpAddVertex, Subject: ghost}}); err != nil {
			t.Fatalf("ghost apply %d: %v", i, err)
		}
		if err := <-done; err != nil {
			t.Fatalf("compact %d: %v", i, err)
		}
		if eng.KG().Graph().Vertex(ghost) == graph.NoVertex {
			t.Fatalf("vertex %q committed during compaction vanished after the swap", ghost)
		}
	}
}

// TestMutateNoOpBatchKeepsEpoch regression-tests idempotent batches:
// interning names that already exist changes nothing, so no epoch may
// be published and the constraint cache keeps every entry.
func TestMutateNoOpBatchKeepsEpoch(t *testing.T) {
	g0, _ := mutSeedGraph(17, 20, 2, 60)
	eng := pub.NewEngine(pub.FromGraph(g0), mutOpts)
	ctx := context.Background()
	// Prime the constraint cache.
	if _, err := eng.Query(ctx, pub.Request{
		Source: "v0", Target: "v1", Constraint: `SELECT ?x WHERE { ?x <l0> ?y. }`, Algorithm: pub.UIS,
	}); err != nil {
		t.Fatal(err)
	}
	before := eng.Epoch()
	cacheBefore := eng.CacheStats()
	if cacheBefore.Entries == 0 {
		t.Fatal("cache not primed")
	}
	res, err := eng.Apply(ctx, []pub.Mutation{
		{Op: pub.OpAddVertex, Subject: "v0"}, // already interned
		{Op: pub.OpAddLabel, Label: "l1"},    // already interned
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Epoch != before.Epoch || res.NewVertices != 0 || res.NewLabels != 0 {
		t.Fatalf("no-op batch published: %+v (before %+v)", res, before)
	}
	if after := eng.CacheStats(); after.Entries != cacheBefore.Entries {
		t.Fatalf("no-op batch dropped the constraint cache: %+v -> %+v", cacheBefore, after)
	}

	// Engine.Health reads one epoch: its numbers must be mutually
	// consistent by construction.
	kg, _, info, _ := eng.Health()
	if kg.Graph().OverlaySize() != info.OverlayOps {
		t.Fatalf("Health inconsistent: kg overlay %d vs info %d", kg.Graph().OverlaySize(), info.OverlayOps)
	}
}

// TestMutateMaintenanceCounters walks the maintenance lifecycle through
// the public surface (IndexMaintenance / Health, what /healthz serves):
// an insert-only batch dirties the landmarks whose regions source the
// new edges, and so does a deletion; compaction clears the dirty set but
// not the cumulative counter.
func TestMutateMaintenanceCounters(t *testing.T) {
	const n, nLabels = 60, 3
	g0, model := mutSeedGraph(23, n, nLabels, 300)
	eng := pub.NewEngine(pub.FromGraph(g0), mutOpts)
	ctx := context.Background()

	if m := eng.IndexMaintenance(); !m.Enabled || m.Batches != 0 || m.DirtyLandmarks != 0 {
		t.Fatalf("fresh engine maintenance state: %+v", m)
	}

	// Insert-only: maintenance runs and dirties the touched landmarks.
	var inserts []pub.Mutation
	for i := 0; i < 12; i++ {
		mut := pub.Mutation{
			Op:      pub.OpAddEdge,
			Subject: fmt.Sprintf("v%d", (i*5)%n),
			Label:   fmt.Sprintf("l%d", i%nLabels),
			Object:  fmt.Sprintf("v%d", (i*9+2)%n),
		}
		inserts = append(inserts, mut)
		model.apply(mut)
	}
	if _, err := eng.Apply(ctx, inserts); err != nil {
		t.Fatal(err)
	}
	m := eng.IndexMaintenance()
	if m.Batches != 1 || m.DirtyLandmarks == 0 || m.LandmarksInvalidated != int64(m.DirtyLandmarks) {
		t.Fatalf("after insert-only batch: %+v", m)
	}
	if did, err := eng.Compact(ctx); err != nil || !did {
		t.Fatalf("Compact = %v, %v", did, err)
	}
	if m2 := eng.IndexMaintenance(); m2.DirtyLandmarks != 0 || m2.LandmarksInvalidated != m.LandmarksInvalidated {
		t.Fatalf("after compacting the inserts: %+v", m2)
	}
	invalidated := m.LandmarksInvalidated

	// Deletions: at least one landmark must eventually go dirty (edges
	// sourced outside every region are the only exception, so a handful
	// of deletes is plenty at K=24 on 60 vertices).
	for i := 0; i < 10 && eng.IndexMaintenance().DirtyLandmarks == 0; i++ {
		e := model.edges[0]
		mut := pub.Mutation{Op: pub.OpDeleteEdge, Subject: e.s, Label: e.l, Object: e.t}
		model.apply(mut)
		if _, err := eng.Apply(ctx, []pub.Mutation{mut}); err != nil {
			t.Fatal(err)
		}
	}
	m = eng.IndexMaintenance()
	if m.DirtyLandmarks == 0 || m.LandmarksInvalidated == invalidated {
		t.Fatalf("deletions never invalidated a landmark: %+v", m)
	}

	// Compaction rebuilds invalidated landmarks: dirty set clears.
	if did, err := eng.Compact(ctx); err != nil || !did {
		t.Fatalf("Compact = %v, %v", did, err)
	}
	m = eng.IndexMaintenance()
	if m.DirtyLandmarks != 0 {
		t.Fatalf("after compaction: %+v", m)
	}
	if _, _, info, maint := eng.Health(); maint.DirtyLandmarks != 0 {
		t.Fatalf("Health disagrees with IndexMaintenance: %+v vs epoch %+v", maint, info)
	}
}

// TestMutateMaintainedDeterminism: two engines fed the identical script
// answer bit-identically at every prefix — all four algorithms, Stats
// included (INS's Stats are a function of the maintained index, so this
// pins maintenance determinism end to end).
func TestMutateMaintainedDeterminism(t *testing.T) {
	const n, nLabels = 50, 3
	g0a, model := mutSeedGraph(61, n, nLabels, 250)
	g0b, _ := mutSeedGraph(61, n, nLabels, 250)
	ea := pub.NewEngine(pub.FromGraph(g0a), mutOpts)
	eb := pub.NewEngine(pub.FromGraph(g0b), mutOpts)
	script := mutScript(62, model, 6, 10)
	reqs := mutRequests(n, nLabels)
	ctx := context.Background()
	bo := pub.BatchOptions{Concurrency: 4}

	for step, batch := range script {
		if _, err := ea.Apply(ctx, batch); err != nil {
			t.Fatal(err)
		}
		if _, err := eb.Apply(ctx, batch); err != nil {
			t.Fatal(err)
		}
		ra := ea.QueryBatch(ctx, reqs, bo)
		rb := eb.QueryBatch(ctx, reqs, bo)
		for i := range reqs {
			if err := answersEqual(ra[i], rb[i], true); err != nil {
				t.Fatalf("step %d, request %d (%v): %v", step, i, reqs[i].Algorithm, err)
			}
		}
		ma, mb := ea.IndexMaintenance(), eb.IndexMaintenance()
		if ma != mb {
			t.Fatalf("step %d: maintenance state diverged: %+v vs %+v", step, ma, mb)
		}
	}
	if ea.IndexMaintenance().Batches == 0 {
		t.Fatal("script never exercised maintenance")
	}
}

// TestMutateBackgroundCompaction drives Apply past a tiny CompactAfter
// threshold and waits for the background compactor to land, proving the
// trigger path (not just the synchronous Compact) and that the swapped
// epoch answers like a from-scratch rebuild.
func TestMutateBackgroundCompaction(t *testing.T) {
	const n, nLabels = 30, 3
	g0, model := mutSeedGraph(9, n, nLabels, 150)
	opts := mutOpts
	opts.CompactAfter = 5 // tiny: nearly every batch crosses it
	eng := pub.NewEngine(pub.FromGraph(g0), opts)
	script := mutScript(10, model, 5, 8)
	ctx := context.Background()

	started := false
	for _, batch := range script {
		res, err := eng.Apply(ctx, batch)
		if err != nil {
			t.Fatal(err)
		}
		started = started || res.CompactionStarted
		for _, mut := range batch {
			model.apply(mut)
		}
	}
	if !started {
		t.Fatal("no background compaction was ever started")
	}
	// Compact() waits for any in-flight background run (compactMu) and
	// folds whatever remains, so the state below is deterministic.
	if _, err := eng.Compact(ctx); err != nil {
		t.Fatal(err)
	}
	info := eng.Epoch()
	if info.Compactions == 0 {
		t.Fatal("no compaction recorded")
	}
	if info.OverlayOps != 0 {
		t.Fatalf("%d overlay ops left after final compaction", info.OverlayOps)
	}

	rebuilt := pub.NewEngine(pub.FromGraph(model.build()), opts)
	reqs := mutRequests(n, nLabels)
	want := rebuilt.QueryBatch(ctx, reqs, pub.BatchOptions{})
	got := eng.QueryBatch(ctx, reqs, pub.BatchOptions{})
	for i := range reqs {
		if err := answersEqual(got[i], want[i], true); err != nil {
			t.Errorf("request %d (%v): %v", i, reqs[i].Algorithm, err)
		}
	}
}
