package graph

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"runtime"
	"slices"
	"testing"
)

// deltaModel is the test-side truth the overlay must agree with: the
// dictionaries in intern order and the surviving edge multiset, kept as
// a list so deletions can remove exactly one instance.
type deltaModel struct {
	names   []string
	nameIDs map[string]VertexID
	labels  []string
	edges   []Triple
}

func (m *deltaModel) vertex(name string) VertexID {
	if id, ok := m.nameIDs[name]; ok {
		return id
	}
	id := VertexID(len(m.names))
	m.names = append(m.names, name)
	m.nameIDs[name] = id
	return id
}

// build rebuilds the model from scratch through a Builder — the
// "engine rebuilt on the final edge set" the overlay must match.
func (m *deltaModel) build() *Graph {
	b := NewBuilder()
	for _, l := range m.labels {
		b.Label(l)
	}
	for _, v := range m.names {
		b.Vertex(v)
	}
	for _, e := range m.edges {
		b.AddEdge(e.Subject, e.Label, e.Object)
	}
	return b.Build()
}

// observe renders a total observation of g: the vertex and label
// dictionaries in ID order and the ordered Triples. An overlay view
// observes its merged state, so equal observations mean observationally
// identical graphs.
func observe(t *testing.T, g *Graph) []byte {
	t.Helper()
	var buf bytes.Buffer
	for v := 0; v < g.NumVertices(); v++ {
		fmt.Fprintf(&buf, "v %q\n", g.VertexName(VertexID(v)))
	}
	for l := 0; l < g.NumLabels(); l++ {
		fmt.Fprintf(&buf, "l %q\n", g.LabelName(Label(l)))
	}
	g.Triples(func(tr Triple) bool {
		fmt.Fprintf(&buf, "e %d %d %d\n", tr.Subject, tr.Label, tr.Object)
		return true
	})
	return buf.Bytes()
}

// clone returns an independent copy of the model.
func (m *deltaModel) clone() *deltaModel {
	return &deltaModel{
		names:   slices.Clone(m.names),
		nameIDs: maps.Clone(m.nameIDs),
		labels:  slices.Clone(m.labels),
		edges:   slices.Clone(m.edges),
	}
}

// deltaChain is one line of commits: views[i] is the view after i
// batches, models[i] a snapshot of the model it must observe as, and
// ops[i] the edge ops batch i committed.
type deltaChain struct {
	views  []*Graph
	models []*deltaModel
	ops    [][]EdgeOp
}

// last returns the chain's final view and its model.
func (c *deltaChain) last() (*Graph, *deltaModel) {
	return c.views[len(c.views)-1], c.models[len(c.models)-1]
}

// commitRandomBatch stages one random batch of opsPerBatch ops on g,
// mirrors it into the model (which it advances in place) and commits
// it, returning the new view and the ops it committed.
func commitRandomBatch(rng *rand.Rand, g *Graph, model *deltaModel, nLabels, bi, opsPerBatch int) (*Graph, []EdgeOp, error) {
	d := NewDelta(g)
	for oi := 0; oi < opsPerBatch; oi++ {
		if len(model.edges) > 0 && rng.Intn(3) == 0 {
			// Delete one random surviving instance.
			i := rng.Intn(len(model.edges))
			e := model.edges[i]
			if err := d.DeleteEdge(e.Subject, e.Label, e.Object); err != nil {
				return nil, nil, fmt.Errorf("batch %d op %d: DeleteEdge(%v): %w", bi, oi, e, err)
			}
			model.edges = append(model.edges[:i], model.edges[i+1:]...)
			continue
		}
		// Insert, sometimes via a brand-new vertex name.
		sName := model.names[rng.Intn(len(model.names))]
		tName := model.names[rng.Intn(len(model.names))]
		if rng.Intn(4) == 0 {
			sName = fmt.Sprintf("w%d_%d", bi, oi)
		}
		l := Label(rng.Intn(nLabels))
		if err := d.AddEdgeNames(sName, "l"+string(rune('a'+int(l))), tName); err != nil {
			return nil, nil, fmt.Errorf("batch %d op %d: AddEdgeNames: %w", bi, oi, err)
		}
		model.edges = append(model.edges, Triple{model.vertex(sName), l, model.vertex(tName)})
	}
	ops := d.EdgeOps()
	g, err := d.Commit()
	if err != nil {
		return nil, nil, fmt.Errorf("batch %d: Commit: %w", bi, err)
	}
	return g, ops, nil
}

// runDeltaScript builds a random base graph and applies `batches` random
// mutation batches through Delta.Commit (mirrored into the model),
// keeping every intermediate view. It then forks: from a view the main
// chain has already extended, a second chain commits its own batches,
// so two commits share each parent view from the fork point on.
func runDeltaScript(seed int64, n, m, nLabels, batches, opsPerBatch int) (main, fork *deltaChain, err error) {
	rng := rand.New(rand.NewSource(seed))
	b, edges := randomTriples(seed, n, m, nLabels)
	g := b.Build()

	model := &deltaModel{nameIDs: make(map[string]VertexID)}
	for i := 0; i < n; i++ {
		model.vertex(vname(i))
	}
	for i := 0; i < nLabels; i++ {
		model.labels = append(model.labels, "l"+string(rune('a'+i)))
	}
	model.edges = append(model.edges, edges...)

	main = &deltaChain{views: []*Graph{g}, models: []*deltaModel{model.clone()}}
	for bi := 0; bi < batches; bi++ {
		var ops []EdgeOp
		if g, ops, err = commitRandomBatch(rng, g, model, nLabels, bi, opsPerBatch); err != nil {
			return nil, nil, err
		}
		main.views = append(main.views, g)
		main.models = append(main.models, model.clone())
		main.ops = append(main.ops, ops)
	}

	// The fork draws from its own stream, so the main chain's script is
	// the same with or without it.
	frng := rand.New(rand.NewSource(^seed))
	at := frng.Intn(batches)
	fork = &deltaChain{
		views:  slices.Clone(main.views[:at+1]),
		models: slices.Clone(main.models[:at+1]),
		ops:    slices.Clone(main.ops[:at]),
	}
	g, model = main.views[at], main.models[at].clone()
	for bi := at; bi < batches; bi++ {
		var ops []EdgeOp
		if g, ops, err = commitRandomBatch(frng, g, model, nLabels, bi, opsPerBatch); err != nil {
			return nil, nil, fmt.Errorf("fork at %d: %w", at, err)
		}
		fork.views = append(fork.views, g)
		fork.models = append(fork.models, model.clone())
		fork.ops = append(fork.ops, ops)
	}
	return main, fork, nil
}

// checkDeltaAgainstModel asserts the overlay view and its compaction are
// both observationally identical to a from-scratch rebuild on the final
// edge set: same dictionaries in the same ID order, same Out/In
// multisets, ordered Triples, HasEdge relation and label-run purity
// (via the shared CSR property checker), and byte-identical total
// observations.
func checkDeltaAgainstModel(t *testing.T, g *Graph, model *deltaModel) {
	t.Helper()
	built := model.build()
	ref := newRefGraph(len(model.names), model.edges)

	if g.NumVertices() != len(model.names) || g.NumLabels() != len(model.labels) {
		t.Fatalf("overlay dims |V|=%d |L|=%d, want %d/%d",
			g.NumVertices(), g.NumLabels(), len(model.names), len(model.labels))
	}
	for i, name := range model.names {
		if g.VertexName(VertexID(i)) != name || g.Vertex(name) != VertexID(i) {
			t.Fatalf("vertex dictionary diverges at %d (%q)", i, name)
		}
	}
	for i, name := range model.labels {
		if g.LabelName(Label(i)) != name {
			t.Fatalf("label dictionary diverges at %d (%q)", i, name)
		}
		if l, ok := g.LabelByName(name); !ok || l != Label(i) {
			t.Fatalf("LabelByName(%q) = %v,%v want %d", name, l, ok, i)
		}
	}

	// The full CSR observational property suite, on the live overlay...
	checkCSRAgainstRef(t, g, ref, model.edges, len(model.labels))
	// ...and on its compaction.
	compacted := g.Compact()
	if compacted.HasOverlay() {
		t.Fatal("Compact left an overlay behind")
	}
	checkCSRAgainstRef(t, compacted, ref, model.edges, len(model.labels))

	// Apply-then-compact must equal build-from-final-edges bit for bit.
	want := observe(t, built)
	if !bytes.Equal(observe(t, compacted), want) {
		t.Fatal("apply-then-compact observation differs from build-from-final-edges")
	}
	// The overlay view itself observes identically too.
	if !bytes.Equal(observe(t, g), want) {
		t.Fatal("overlay observation differs from build-from-final-edges")
	}
}

// checkDeltaChain re-observes every view of a chain once the script,
// fork included, has ended. Each view must still observe as its own
// model snapshot, log exactly its chain's ops, and replay from the base
// to itself: a commit that wrote into a row, leaf, log chunk or
// dictionary it shares with its parent view would move one of them.
func checkDeltaChain(t *testing.T, c *deltaChain) {
	t.Helper()
	base := c.views[0]
	var ops []EdgeOp
	for i, g := range c.views {
		if i > 0 {
			ops = append(ops, c.ops[i-1]...)
		}
		want := observe(t, c.models[i].build())
		if !bytes.Equal(observe(t, g), want) {
			t.Fatalf("view %d no longer observes as its model snapshot", i)
		}
		if got := g.OverlayEdgeOps(0); !slices.Equal(got, ops) {
			t.Fatalf("view %d logs %v, want %v", i, got, ops)
		}
		replayed, err := ReplayOnto(base, g, 0, g.Cut())
		if err != nil {
			t.Fatalf("view %d: %v", i, err)
		}
		if !bytes.Equal(observe(t, replayed), want) {
			t.Fatalf("view %d: replaying its log onto the base diverges", i)
		}
	}
}

// checkDeltaScript runs checkDeltaAgainstModel on the final view of the
// main chain and of its fork, then re-observes both chains' history.
func checkDeltaScript(t *testing.T, main, fork *deltaChain) {
	t.Helper()
	for _, c := range []*deltaChain{main, fork} {
		g, model := c.last()
		checkDeltaAgainstModel(t, g, model)
	}
	checkDeltaChain(t, main)
	checkDeltaChain(t, fork)
}

// Property: for random mutation scripts, apply-then-compact is
// observationally identical to building from the final edge set.
func TestDeltaCompactEquivalenceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 40; i++ {
		n := rng.Intn(20) + 1
		m := rng.Intn(128)
		nLabels := rng.Intn(5) + 1
		batches := rng.Intn(4) + 1
		ops := rng.Intn(24) + 1
		seed := rng.Int63()
		t.Logf("shape %d: seed=%d n=%d m=%d labels=%d batches=%d ops=%d", i, seed, n, m, nLabels, batches, ops)
		main, fork, err := runDeltaScript(seed, n, m, nLabels, batches, ops)
		if err != nil {
			t.Fatal(err)
		}
		checkDeltaScript(t, main, fork)
	}
}

// FuzzDeltaCompactEquivalence drives the same equivalence, fork and
// history checks from fuzzed script shapes, mirroring
// FuzzCSREquivalence.
func FuzzDeltaCompactEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(5), uint8(40), uint8(3), uint8(2), uint8(10))
	f.Add(int64(42), uint8(1), uint8(0), uint8(1), uint8(1), uint8(1))
	f.Add(int64(-7), uint8(19), uint8(200), uint8(5), uint8(3), uint8(30))
	f.Fuzz(func(t *testing.T, seed int64, nRaw, mRaw, lRaw, bRaw, oRaw uint8) {
		n := int(nRaw%20) + 1
		m := int(mRaw % 128)
		nLabels := int(lRaw%5) + 1
		batches := int(bRaw%4) + 1
		ops := int(oRaw%24) + 1
		main, fork, err := runDeltaScript(seed, n, m, nLabels, batches, ops)
		if err != nil {
			t.Fatal(err)
		}
		checkDeltaScript(t, main, fork)
	})
}

// TestDeltaValidation pins the staging error contract: deletes of absent
// instances fail (multiset-aware against earlier staged ops), failed
// batches publish nothing, and empty commits return the view itself.
func TestDeltaValidation(t *testing.T) {
	b := NewBuilder()
	b.AddEdgeNames("a", "l", "b")
	b.AddEdgeNames("a", "l", "b") // parallel instance
	g := b.Build()
	a, l, bb := g.Vertex("a"), Label(0), g.Vertex("b")

	d := NewDelta(g)
	if err := d.DeleteEdge(a, l, bb); err != nil {
		t.Fatalf("first delete: %v", err)
	}
	if err := d.DeleteEdge(a, l, bb); err != nil {
		t.Fatalf("second delete (second instance): %v", err)
	}
	if err := d.DeleteEdge(a, l, bb); !errors.Is(err, ErrEdgeNotFound) {
		t.Fatalf("third delete: got %v, want ErrEdgeNotFound", err)
	}
	if err := d.DeleteEdge(a, Label(9), bb); !errors.Is(err, ErrVertexRange) {
		t.Fatalf("unknown label delete: got %v, want ErrVertexRange", err)
	}
	h, err := d.Commit()
	if err != nil {
		t.Fatal(err)
	}
	if h.NumEdges() != 0 || h.HasEdge(a, l, bb) {
		t.Fatalf("both instances should be gone: |E|=%d", h.NumEdges())
	}
	if g.NumEdges() != 2 || !g.HasEdge(a, l, bb) {
		t.Fatal("commit mutated the staged-against view")
	}

	// A delete staged after an add in the same batch must see the add.
	d2 := NewDelta(g)
	if err := d2.AddEdgeNames("x", "l", "y"); err != nil {
		t.Fatal(err)
	}
	if err := d2.DeleteEdge(d2.Vertex("x"), l, d2.Vertex("y")); err != nil {
		t.Fatalf("delete of same-batch add: %v", err)
	}

	// Empty commit: the view is returned unchanged, no overlay appears.
	d3 := NewDelta(g)
	h3, err := d3.Commit()
	if err != nil {
		t.Fatal(err)
	}
	if h3 != g {
		t.Fatal("empty commit should return the view itself")
	}
}

// TestDeltaChainOverlayLog pins OverlaySize accounting across chained
// commits and the ReplayOnto catch-up path the compactor uses.
func TestDeltaChainOverlayLog(t *testing.T) {
	b := NewBuilder()
	b.AddEdgeNames("a", "l", "b")
	g0 := b.Build()

	d := NewDelta(g0)
	if err := d.AddEdgeNames("b", "l", "c"); err != nil {
		t.Fatal(err)
	}
	g1, err := d.Commit()
	if err != nil {
		t.Fatal(err)
	}
	d = NewDelta(g1)
	if err := d.AddEdgeNames("c", "m", "d"); err != nil {
		t.Fatal(err)
	}
	if l, ok := g1.LabelByName("l"); !ok {
		t.Fatal("label l missing")
	} else if err := d.DeleteEdge(g1.Vertex("a"), l, g1.Vertex("b")); err != nil {
		t.Fatal(err)
	}
	g2, err := d.Commit()
	if err != nil {
		t.Fatal(err)
	}
	if g1.OverlaySize() != 1 || g2.OverlaySize() != 3 {
		t.Fatalf("overlay sizes %d/%d, want 1/3", g1.OverlaySize(), g2.OverlaySize())
	}

	// Compact g1's state, then replay g2's suffix onto it: the result
	// must observe identically to g2.
	base := g1.Compact()
	caught, err := ReplayOnto(base, g2, g1.OverlaySize(), g2.Cut())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(observe(t, g2), observe(t, caught)) {
		t.Fatal("replayed suffix diverges from the live overlay view")
	}

	// The prefix up to g1's cut, replayed from g2 onto the shared base,
	// is g1's state again — the fold a replayed seal record runs.
	prefix, err := ReplayOnto(g0, g2, 0, g1.Cut())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(observe(t, g1), observe(t, prefix)) {
		t.Fatal("replayed prefix diverges from the view at its cut")
	}
	if _, err := ReplayOnto(g0, g1, 0, g2.Cut()); err == nil {
		t.Fatal("replay past the view's overlay accepted")
	}
}

// stageBatch stages n random ops on g among its existing vertices: about
// one in three deletes one instance of an existing out-edge, the rest
// insert.
func stageBatch(tb testing.TB, g *Graph, rng *rand.Rand, n int) *Delta {
	tb.Helper()
	d := NewDelta(g)
	nV, nL := g.NumVertices(), g.NumLabels()
	for d.Ops() < n {
		s := VertexID(rng.Intn(nV))
		if es := g.Out(s); len(es) > 0 && rng.Intn(3) == 0 {
			e := es[rng.Intn(len(es))]
			// ErrEdgeNotFound: this batch already deleted the last instance.
			if err := d.DeleteEdge(s, e.Label, e.To); err != nil && !errors.Is(err, ErrEdgeNotFound) {
				tb.Fatal(err)
			}
			continue
		}
		if err := d.AddEdge(s, Label(rng.Intn(nL)), VertexID(rng.Intn(nV))); err != nil {
			tb.Fatal(err)
		}
	}
	return d
}

// commitBatches chains 16-op batches onto g until its overlay holds at
// least ops ops.
func commitBatches(tb testing.TB, g *Graph, rng *rand.Rand, ops int) *Graph {
	tb.Helper()
	for g.OverlaySize() < ops {
		var err error
		if g, err = stageBatch(tb, g, rng, 16).Commit(); err != nil {
			tb.Fatal(err)
		}
	}
	return g
}

// TestDeltaCommitFlatInOverlay pins the persistent overlay's cost model:
// a 16-op Commit allocates about as much at a 4096-op overlay as at a
// 16-op one, because it copies only the spine, the leaves and rows its
// batch touches and the log's partial tail chunk. A whole-overlay
// rebuild allocates in proportion to the overlay and fails here.
func TestDeltaCommitFlatInOverlay(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	// slack absorbs the log's partial tail chunk (at most logChunk ops of
	// 16 B) and leaf-count jitter between the two batches.
	const slack = 8 << 10
	rng := rand.New(rand.NewSource(37))
	commitBytes := func(g *Graph) uint64 {
		d := stageBatch(t, g, rng, 16)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := d.Commit(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	g := commitBatches(t, benchGraph(t, 20000, 80000), rng, 16)
	small := commitBytes(g)
	g = commitBatches(t, g, rng, 4096)
	large := commitBytes(g)
	t.Logf("16-op commit allocates %d B at a 16-op overlay, %d B at %d ops", small, large, g.OverlaySize())
	if large > small*3/2+slack {
		t.Fatalf("commit at a %d-op overlay allocates %d B, over 1.5 × %d B + %d B at a 16-op overlay",
			g.OverlaySize(), large, small, slack)
	}
}
