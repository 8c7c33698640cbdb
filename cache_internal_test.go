package lscr

import (
	"context"
	"slices"
	"testing"

	"lscr/internal/graph"
)

// The constraint cache belongs to the engine and an entry serves an
// epoch only while no batch since its compilation touched one of its
// labels (or, when it is unsatisfiable, interned a name). These tests pin
// that rule on the paper's fincrime scenario, whose constraints read
// either married-to or transfer2019-04 edges.

const (
	// marriedText reads only married-to edges: V = {MiddlemanX, Decoy}.
	marriedText = `SELECT ?x WHERE { ?x <married-to> ?y. }`
	// transferText reads only transfer2019-04 edges.
	transferText = `SELECT ?x WHERE { ?x <transfer2019-04> ?y. }`
)

// cacheEngine is an in-memory fincrime engine that compacts only when
// asked.
func cacheEngine(t *testing.T) *Engine {
	t.Helper()
	return NewEngine(loadFincrime(t), Options{CompactAfter: -1})
}

// entryAt compiles text on ep through the cache, as a query on ep does.
func entryAt(t *testing.T, ep *epoch, text string) *compiledConstraint {
	t.Helper()
	cc, err := ep.compileConstraint(text)
	if err != nil {
		t.Fatalf("compile %s: %v", text, err)
	}
	return cc
}

// mustApply commits muts.
func mustApply(t *testing.T, e *Engine, muts ...Mutation) {
	t.Helper()
	if _, err := e.Apply(context.Background(), muts); err != nil {
		t.Fatal(err)
	}
}

// satisfying returns the names in V(S,G) for cc as ep's reader sees it.
func satisfying(ep *epoch, cc *compiledConstraint) []string {
	var out []string
	for _, v := range cc.vertexSet(ep.kg.g) {
		out = append(out, ep.kg.g.VertexName(v))
	}
	return out
}

// TestCacheCarriesAcrossDisjointApply: an Apply whose edges carry none
// of a constraint's labels serves the same compiled entry, and the new
// epoch counts the lookup as a hit.
func TestCacheCarriesAcrossDisjointApply(t *testing.T) {
	eng := cacheEngine(t)
	before := entryAt(t, eng.current(), marriedText)
	satisfying(eng.current(), before) // memoize V(S,G)

	mustApply(t, eng,
		Mutation{Op: OpAddEdge, Subject: "AccountA", Label: "transfer2019-04", Object: "Decoy"},
		Mutation{Op: OpDeleteEdge, Subject: "SuspectC", Label: "friend-of", Object: "Decoy"})
	if after := entryAt(t, eng.current(), marriedText); after != before {
		t.Fatal("an Apply on other labels recompiled the constraint")
	}
	if st := eng.CacheStats(); st.Hits != 1 || st.Misses != 0 {
		t.Fatalf("new epoch's counters = %+v, want one hit and no miss", st)
	}
}

// TestCacheMissesOnFootprintApply: an Apply that adds an edge with a
// constraint's label invalidates that constraint only — its V(S,G) and
// the answer gain the new vertex — while a constraint on other labels
// keeps its entry.
func TestCacheMissesOnFootprintApply(t *testing.T) {
	ctx := context.Background()
	eng := cacheEngine(t)
	req := Request{Source: "SuspectC", Target: "SuspectP", Labels: []string{"transfer2019-05"},
		Constraint: marriedText, Algorithm: UISStar}
	resp, err := eng.Query(ctx, req)
	if err != nil || resp.Reachable || resp.SatisfyingVertices != 2 {
		t.Fatalf("before: %+v, %v; want unreachable with |V(S,G)| = 2", resp, err)
	}
	married := entryAt(t, eng.current(), marriedText)
	transfer := entryAt(t, eng.current(), transferText)

	mustApply(t, eng, Mutation{Op: OpAddEdge, Subject: "SuspectP", Label: "married-to", Object: "Carol"})
	ep := eng.current()
	if got := entryAt(t, ep, marriedText); got == married {
		t.Fatal("an Apply adding a married-to edge kept the married-to constraint")
	} else if want := []string{"MiddlemanX", "SuspectP", "Decoy"}; !sameNames(satisfying(ep, got), want) {
		t.Fatalf("V(S,G) after the Apply = %v, want %v", satisfying(ep, got), want)
	}
	if got := entryAt(t, ep, transferText); got != transfer {
		t.Fatal("an Apply on married-to recompiled the transfer2019-04 constraint")
	}
	for _, alg := range []Algorithm{INS, UIS, UISStar, Conjunctive} {
		req.Algorithm = alg
		resp, err := eng.Query(ctx, req)
		if err != nil || !resp.Reachable {
			t.Fatalf("%v after the Apply: %+v, %v; want reachable through SuspectP", alg, resp, err)
		}
	}
}

// sameNames compares two name sets.
func sameNames(got, want []string) bool {
	got, want = slices.Clone(got), slices.Clone(want)
	slices.Sort(got)
	slices.Sort(want)
	return slices.Equal(got, want)
}

// TestCacheSurvivesSeal: a quiet Compact keeps every entry, and so does
// a seal that replays a batch which landed mid-rebuild — a seal keeps
// the edges and names of the epoch it succeeds, and with them what the
// batches before it invalidated.
func TestCacheSurvivesSeal(t *testing.T) {
	ctx := context.Background()
	eng := cacheEngine(t)
	stale := entryAt(t, eng.current(), marriedText)
	mustApply(t, eng, Mutation{Op: OpAddEdge, Subject: "Amy", Label: "married-to", Object: "MiddlemanX"})
	transfer := entryAt(t, eng.current(), transferText)
	if did, err := eng.Compact(ctx); err != nil || !did {
		t.Fatalf("Compact = %v, %v", did, err)
	}
	ep := eng.current()
	if entryAt(t, ep, transferText) != transfer {
		t.Fatal("a quiet Compact dropped a cached constraint")
	}
	married := entryAt(t, ep, marriedText)
	if married == stale {
		t.Fatal("the seal revived an entry the batch before it invalidated")
	}
	if st := eng.CacheStats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("sealed epoch's counters = %+v, want one hit and one miss", st)
	}

	// A catch-up seal: the batch lands after the compactor's snapshot and
	// is replayed onto the fold. Entries compiled on the epoch it
	// published hold for the seal too.
	mustApply(t, eng, Mutation{Op: OpDeleteEdge, Subject: "Amy", Label: "married-to", Object: "MiddlemanX"})
	compactBarrier = func() {
		compactBarrier = nil
		mustApply(t, eng, Mutation{Op: OpAddEdge, Subject: "Decoy", Label: "transfer2019-04", Object: "Beth"})
		married = entryAt(t, eng.current(), marriedText)
		transfer = entryAt(t, eng.current(), transferText)
	}
	defer func() { compactBarrier = nil }()
	if did, err := eng.Compact(ctx); err != nil || !did {
		t.Fatalf("Compact = %v, %v", did, err)
	}
	ep = eng.current()
	if !ep.kg.g.HasOverlay() {
		t.Fatal("the mid-rebuild batch was not replayed onto the fold")
	}
	if entryAt(t, ep, marriedText) != married || entryAt(t, ep, transferText) != transfer {
		t.Fatal("a catch-up seal dropped a cached constraint")
	}
	if want := []string{"MiddlemanX", "Decoy"}; !sameNames(satisfying(ep, married), want) {
		t.Fatalf("carried V(S,G) = %v, want %v", satisfying(ep, married), want)
	}
}

// TestCacheOlderReaderNeverUsesNewerEntry: a reader still holding the
// epoch before a touching batch recompiles rather than use the entry
// compiled after it, and the entry that reader leaves in the cache is
// not used by the newer epoch either.
func TestCacheOlderReaderNeverUsesNewerEntry(t *testing.T) {
	eng := cacheEngine(t)
	old := eng.current()
	mustApply(t, eng, Mutation{Op: OpAddEdge, Subject: "SuspectP", Label: "married-to", Object: "Carol"})
	cur := eng.current()
	newer := entryAt(t, cur, marriedText)
	if !slices.Contains(satisfying(cur, newer), "SuspectP") {
		t.Fatal("the newer epoch's V(S,G) misses the married-to edge it added")
	}

	older := entryAt(t, old, marriedText)
	if older == newer || slices.Contains(satisfying(old, older), "SuspectP") {
		t.Fatalf("the older reader used the entry compiled after the batch: V(S,G) = %v", satisfying(old, older))
	}
	if st := old.cacheStats(); st.Misses != 1 || st.Hits != 0 {
		t.Fatalf("older epoch's counters = %+v, want one miss", st)
	}

	misses := cur.cacheStats().Misses
	again := entryAt(t, cur, marriedText)
	if again == older || cur.cacheStats().Misses != misses+1 || !slices.Contains(satisfying(cur, again), "SuspectP") {
		t.Fatal("the newer epoch used the entry the older reader compiled")
	}
}

// TestCacheUnsatisfiableRecompiledOnIntern: a constraint naming an
// absent entity is carried across batches that intern nothing, and
// recompiled — now satisfiable — once a batch interns a name.
func TestCacheUnsatisfiableRecompiledOnIntern(t *testing.T) {
	ctx := context.Background()
	eng := cacheEngine(t)
	const text = `SELECT ?x WHERE { ?x <married-to> <Zed>. }`
	unsat := entryAt(t, eng.current(), text)
	if unsat.sat {
		t.Fatal("a constraint on an absent vertex compiled satisfiable")
	}
	mustApply(t, eng, Mutation{Op: OpAddEdge, Subject: "AccountA", Label: "transfer2019-04", Object: "Decoy"})
	if entryAt(t, eng.current(), text) != unsat {
		t.Fatal("a batch that interned nothing recompiled the unsatisfiable constraint")
	}

	mustApply(t, eng, Mutation{Op: OpAddVertex, Subject: "Zed"})
	cc := entryAt(t, eng.current(), text)
	if cc == unsat || !cc.sat || len(satisfying(eng.current(), cc)) != 0 {
		t.Fatalf("after interning Zed: sat = %v, V(S,G) = %v; want a satisfiable, empty recompilation",
			cc.sat, satisfying(eng.current(), cc))
	}

	mustApply(t, eng, Mutation{Op: OpAddEdge, Subject: "SuspectP", Label: "married-to", Object: "Zed"})
	resp, err := eng.Query(ctx, Request{Source: "SuspectC", Target: "SuspectP",
		Labels: []string{"transfer2019-05"}, Constraint: text, Algorithm: INS})
	if err != nil || !resp.Reachable || resp.SatisfyingVertices != 1 {
		t.Fatalf("after SuspectP married Zed: %+v, %v; want reachable with |V(S,G)| = 1", resp, err)
	}
	if g := eng.current().kg.g; g.Vertex("Zed") == graph.NoVertex {
		t.Fatal("Zed was not interned")
	}
}
