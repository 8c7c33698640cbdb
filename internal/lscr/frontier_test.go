package lscr

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"lscr/internal/graph"
	"lscr/internal/testkg"
)

func TestFrontierQueueOrdering(t *testing.T) {
	sc := getScratch(64)
	defer putScratch(sc)
	q := newFrontierQueue(sc, 64)
	// Push with priority prefixes out of order; pops must come back in
	// ascending prefix order, FIFO within equal prefixes.
	q.push(1, 3<<60)
	q.push(2, 1<<60)
	q.push(3, 2<<60)
	q.push(4, 1<<60)
	// Prefix 1 first (2 then 4, FIFO), then prefix 2 (3), then 3 (1).
	want := []graph.VertexID{2, 4, 3, 1}
	for i, w := range want {
		v, ok := q.pop()
		if !ok || v != w {
			t.Fatalf("pop %d = %v (%v), want %v", i, v, ok, w)
		}
	}
	if _, ok := q.pop(); ok {
		t.Fatal("queue should be empty")
	}
}

func TestFrontierQueueDedupKeepsLatest(t *testing.T) {
	sc := getScratch(16)
	defer putScratch(sc)
	q := newFrontierQueue(sc, 16)
	q.push(5, 2<<60)
	q.push(5, 1<<60) // newer entry with better priority
	v, ok := q.pop()
	if !ok || v != 5 {
		t.Fatalf("pop = %v", v)
	}
	if _, ok := q.pop(); ok {
		t.Fatal("stale duplicate survived")
	}
}

func TestFrontierQueuePeek(t *testing.T) {
	sc := getScratch(8)
	defer putScratch(sc)
	q := newFrontierQueue(sc, 8)
	if _, ok := q.peek(); ok {
		t.Fatal("peek on empty")
	}
	q.push(3, 0)
	if v, ok := q.peek(); !ok || v != 3 {
		t.Fatal("peek failed")
	}
	if v, ok := q.pop(); !ok || v != 3 {
		t.Fatal("pop after peek failed")
	}
}

func TestFrontierQueueEpochIsolation(t *testing.T) {
	// Two queues sharing one pooled scratch must not see each other's
	// stamps.
	sc := getScratch(8)
	q1 := newFrontierQueue(sc, 8)
	q1.push(1, 0)
	putScratch(sc)
	sc2 := getScratch(8)
	defer putScratch(sc2)
	q2 := newFrontierQueue(sc2, 8)
	if _, ok := q2.pop(); ok {
		t.Fatal("fresh queue saw stale entries")
	}
	q2.push(1, 0)
	if v, ok := q2.pop(); !ok || v != 1 {
		t.Fatal("fresh push lost")
	}
}

func TestFrontierQueueRandomizedHeapProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 40; trial++ {
		n := rng.Intn(200) + 1
		sc := getScratch(n)
		q := newFrontierQueue(sc, n)
		type pushRec struct {
			v      graph.VertexID
			prefix uint64
			seq    int
		}
		latest := map[graph.VertexID]pushRec{}
		np := rng.Intn(300)
		for i := 0; i < np; i++ {
			v := graph.VertexID(rng.Intn(n))
			prefix := uint64(rng.Intn(4)) << 60
			q.push(v, prefix)
			latest[v] = pushRec{v: v, prefix: prefix, seq: i}
		}
		var want []pushRec
		for _, r := range latest {
			want = append(want, r)
		}
		sort.Slice(want, func(i, j int) bool {
			if want[i].prefix != want[j].prefix {
				return want[i].prefix < want[j].prefix
			}
			return want[i].seq < want[j].seq
		})
		for i, r := range want {
			v, ok := q.pop()
			if !ok || v != r.v {
				t.Fatalf("trial %d pop %d = %v, want %v", trial, i, v, r.v)
			}
		}
		if _, ok := q.pop(); ok {
			t.Fatalf("trial %d: queue not drained", trial)
		}
		putScratch(sc)
	}
}

func TestScratchEpochOverflowResets(t *testing.T) {
	var e epochArr32
	e.next(4)
	e.epoch = maxEpoch32
	e.a[2] = e.epoch<<2 | 1
	e.next(4) // must reallocate, not wrap
	if e.epoch != 1 {
		t.Fatalf("epoch after overflow = %d", e.epoch)
	}
	if e.a[2] != 0 {
		t.Fatal("stale entry survived overflow reset")
	}
	var e64 epochArr64
	e64.next(4)
	e64.epoch = maxEpoch64
	e64.next(4)
	if e64.epoch != 1 {
		t.Fatalf("epoch64 after overflow = %d", e64.epoch)
	}
}

func TestCloseMapEpochReuse(t *testing.T) {
	sc := getScratch(8)
	c1 := &sc.close
	c1.set(3, T)
	if c1.get(3) != T {
		t.Fatal("set/get broken")
	}
	putScratch(sc)
	sc2 := getScratch(8)
	defer putScratch(sc2)
	c2 := &sc2.close
	if c2.get(3) != N {
		t.Fatal("stale close state visible across epochs")
	}
	// Demotion ignored.
	c2.set(3, T)
	c2.set(3, F)
	if c2.get(3) != T {
		t.Fatal("demotion applied")
	}
	st := c2.stats(graph.NoVertex)
	if st.PassedVertices != 1 || st.SearchTreeNodes != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// hFill builds H from vs the way INS does: keys filled in place, then
// one heapify.
func hFill(vs []graph.VertexID, keyOf func(graph.VertexID, uint64) uint64) keyHeap {
	h := make(keyHeap, 0, len(vs))
	for i, v := range vs {
		h = append(h, heapItem{key: keyOf(v, uint64(i)), v: v})
	}
	h.heapify()
	return h
}

// hDrain pops H empty.
func hDrain(h *keyHeap, keyOf func(graph.VertexID, uint64) uint64) []graph.VertexID {
	var got []graph.VertexID
	for {
		v, ok := hPop(h, keyOf)
		if !ok {
			return got
		}
		got = append(got, v)
	}
}

// byVertex keys items by vertex, then insertion seq.
func byVertex(v graph.VertexID, seq uint64) uint64 { return uint64(v)<<33 | seq }

func TestLazyPQOrdering(t *testing.T) {
	h := hFill([]graph.VertexID{5, 1, 9, 3}, byVertex)
	got := hDrain(&h, byVertex)
	if want := []graph.VertexID{1, 3, 5, 9}; !slices.Equal(got, want) {
		t.Fatalf("pop sequence %v, want %v", got, want)
	}
}

func TestLazyPQRevalidation(t *testing.T) {
	// Keys depend on a mutable rank, as H's depend on the close map;
	// hPop must settle stale keys at the top.
	rank := map[graph.VertexID]uint64{1: 1, 2: 1, 3: 1, 4: 1}
	keyOf := func(v graph.VertexID, seq uint64) uint64 { return rank[v]<<61 | seq }
	h := hFill([]graph.VertexID{1, 2, 3, 4}, keyOf)
	// Demote the top: its stale key is settled without a re-push.
	rank[1] = 2
	if v, ok := hPop(&h, keyOf); !ok || v != 2 {
		t.Fatalf("pop = %v, want 2 after demotion of 1", v)
	}
	// Promote a buried vertex: it surfaces only once its stale key
	// reaches the top, behind 3, whose stored key is still the best.
	rank[4] = 0
	if got, want := hDrain(&h, keyOf), []graph.VertexID{3, 4, 1}; !slices.Equal(got, want) {
		t.Fatalf("pop sequence %v, want %v", got, want)
	}
}

func TestLazyPQPeekDoesNotRemove(t *testing.T) {
	// Settling a stale top keeps it in H: it is still popped.
	rank := uint64(0)
	keyOf := func(v graph.VertexID, seq uint64) uint64 { return rank<<61 | seq }
	h := hFill([]graph.VertexID{4}, keyOf)
	rank = 1
	if v, ok := hPop(&h, keyOf); !ok || v != 4 {
		t.Fatal("pop after settling the top failed")
	}
	if _, ok := hPop(&h, keyOf); ok {
		t.Fatal("pop on empty H succeeded")
	}
}

func TestLazyPQRandomizedAgainstSort(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(40) + 1
		vals := make([]graph.VertexID, n)
		for i := range vals {
			vals[i] = graph.VertexID(rng.Intn(1000))
		}
		// H never deduplicates: every entry pops, in (vertex, seq) order.
		h := hFill(vals, byVertex)
		want := slices.Clone(vals)
		slices.Sort(want)
		if got := hDrain(&h, byVertex); !slices.Equal(got, want) {
			t.Fatalf("trial %d: pop sequence %v, want %v", trial, got, want)
		}
	}
}

// TestKeyHeapHeapifyMatchesPushes: a heapified fill and a fill by n
// pushes pop in the same order, with and without revalidation — pop
// order depends on the keys alone, not on the heap's layout.
func TestKeyHeapHeapifyMatchesPushes(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 60; trial++ {
		n := rng.Intn(300) + 1
		vs := make([]graph.VertexID, n)
		rank := make([]uint64, n)
		for i := range vs {
			vs[i] = graph.VertexID(i)
			rank[i] = uint64(rng.Intn(8))
		}
		rng.Shuffle(n, func(i, j int) { vs[i], vs[j] = vs[j], vs[i] })
		keyOf := func(v graph.VertexID, seq uint64) uint64 { return rank[v]<<40 | seq }

		heapified := hFill(vs, keyOf)
		var pushed keyHeap
		for i, v := range vs {
			pushed = append(pushed, heapItem{key: keyOf(v, uint64(i)), v: v})
			pushed.up(len(pushed) - 1)
		}
		for step := 0; ; step++ {
			if trial%2 == 1 {
				// Move a few ranks between pops, as the close map moves.
				for k := rng.Intn(4); k > 0; k-- {
					rank[rng.Intn(n)] = uint64(rng.Intn(8))
				}
			}
			a, okA := hPop(&heapified, keyOf)
			b, okB := hPop(&pushed, keyOf)
			if a != b || okA != okB {
				t.Fatalf("trial %d pop %d: heapified %v (%v), pushed %v (%v)", trial, step, a, okA, b, okB)
			}
			if !okA {
				break
			}
		}
	}
}

// TestRhoCodePreservesOrder: more boundary connections code lower, the
// same region codes below every D, the cap collapses only D ≥ 2^26-1,
// and neither key layout lets ρ spill into the bits above it.
func TestRhoCodePreservesOrder(t *testing.T) {
	ds := []int{0, 1, fqRhoMax - 1, fqRhoMax}
	for i := 1; i < len(ds); i++ {
		if rhoCode(ds[i]) >= rhoCode(ds[i-1]) {
			t.Fatalf("rhoCode(%d) = %d, not below rhoCode(%d) = %d", ds[i], rhoCode(ds[i]), ds[i-1], rhoCode(ds[i-1]))
		}
	}
	if rhoCode(fqRhoMax+1) != rhoCode(fqRhoMax) {
		t.Fatal("D above the cap does not code as the cap")
	}
	if rhoCode(0)<<34 >= 1<<60 {
		t.Fatal("Q's ρ field overlaps its rank bits")
	}
	if (1+rhoCode(0))<<34 >= 1<<61 {
		t.Fatal("H's ρ field overlaps its state bits")
	}

	rng := rand.New(rand.NewSource(31))
	g := testkg.Random(rng, 30, 90, 3)
	idx := NewLocalIndex(g, IndexParams{K: 4, Seed: 7})
	var same, other bool
	for u := 0; u < g.NumVertices(); u++ {
		for x := 0; x < g.NumVertices(); x++ {
			au, ax := idx.Region(graph.VertexID(u)), idx.Region(graph.VertexID(x))
			rho := idx.Rho(graph.VertexID(u), graph.VertexID(x))
			switch {
			case au == graph.NoVertex || ax == graph.NoVertex:
				if rho != 1+rhoCode(0) {
					t.Fatalf("Rho(%d, %d) outside every region = %d, want the D = 0 code", u, x, rho)
				}
			case au == ax:
				same = true
				if rho != 0 {
					t.Fatalf("same-region Rho(%d, %d) = %d, want 0", u, x, rho)
				}
			default:
				other = true
				if want := 1 + rhoCode(idx.D(au, ax)); rho != want || rho < 1+rhoCode(fqRhoMax) {
					t.Fatalf("Rho(%d, %d) = %d, want %d", u, x, rho, want)
				}
			}
		}
	}
	if !same || !other {
		t.Fatalf("fixture lacks same-region (%v) or cross-region (%v) pairs", same, other)
	}
}
