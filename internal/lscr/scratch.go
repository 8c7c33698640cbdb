package lscr

import (
	"sync"

	"lscr/internal/graph"
	"lscr/internal/lcr"
)

// Per-query scratch state (the close surjection, the frontier stamps and
// the uninformed search's entries) is pooled and epoch-stamped: a query
// bumps the epoch instead of zeroing the arrays, so repeated queries
// over large graphs allocate nothing. Stale entries read as zero values.
//
// The pool is what makes the algorithms reentrant: every query borrows
// a private scratch for its whole duration, so any number of goroutines
// may query the same graph and index concurrently — each sees only its
// own close map, frontier stamps, search states and cut table.

// withSlack adds ~12% headroom to a scratch-array size. The arrays are
// sized for the engine's current vertex count, which creeps upward as
// mutation batches intern new vertices; at 10^7-vertex scale an exact
// fit would force a fresh tens-of-megabytes allocation every few
// thousand interned vertices, so growth is geometric instead.
func withSlack(n int) int { return n + n/8 }

// epochArr32 is a reusable uint32 array with an epoch in the upper bits
// of every entry. closeMap packs (epoch<<2 | state) per vertex.
type epochArr32 struct {
	a     []uint32
	epoch uint32
}

const maxEpoch32 = 1<<30 - 1 // 2 bits reserved for the close state

// next prepares the array for a fresh query of universe size n.
func (e *epochArr32) next(n int) {
	if len(e.a) < n || e.epoch >= maxEpoch32 {
		e.a = make([]uint32, withSlack(n))
		e.epoch = 0
	}
	e.epoch++
}

// epochArr64 is a reusable uint64 array; the frontier queue packs
// (epoch<<33 | seq) per vertex.
type epochArr64 struct {
	a     []uint64
	epoch uint64
}

const maxEpoch64 = 1<<31 - 1 // 33 bits reserved for the sequence

func (e *epochArr64) next(n int) {
	if len(e.a) < n || e.epoch >= maxEpoch64 {
		e.a = make([]uint64, withSlack(n))
		e.epoch = 0
	}
	e.epoch++
}

// scratch bundles the pooled per-query state.
type scratch struct {
	close closeMap
	stamp epochArr64
	// cut is INS's per-landmark Cut/Push-done table; it is zeroed on
	// borrow (landmark counts are ~√|V|·log|V|, so the clear is cheap).
	cut []uint8
	// h is INS's heap H and fq its frontier queue Q. Both backing
	// arrays are reused across queries (INS and newFrontierQueue
	// truncate them), so a steady stream of INS queries stops
	// allocating fresh heaps.
	h  keyHeap
	fq frontierQueue
	// uisStar and ins are the two strategies of the verification driver
	// (verify.go). They live here because the driver calls them through
	// an interface, which would move a stack-allocated strategy to the
	// heap on every query; uisStar's global stack is reused with it.
	uisStar uisStarRun
	ins     insRun
	// uis is the uninformed search's state (uis.go): per-vertex entries,
	// the arena of recorded states, its DFS stack and the matchers.
	uis uisState
	// stack is Naive's DFS stack, and vis its outer-walk visited set.
	// Naive's inner procedure and the witness BFS run on pooled lcr
	// walkers.
	stack []graph.VertexID
	vis   lcr.VisitSet
}

// cutTable returns a zeroed per-landmark table of k entries.
func (s *scratch) cutTable(k int) []uint8 {
	if cap(s.cut) < k {
		s.cut = make([]uint8, k)
	}
	s.cut = s.cut[:k]
	clear(s.cut)
	return s.cut
}

var scratchPool = sync.Pool{New: func() interface{} { return new(scratch) }}

// getScratch borrows a scratch sized for n vertices.
func getScratch(n int) *scratch {
	s := scratchPool.Get().(*scratch)
	s.close.reset(n)
	return s
}

// putScratch returns s to the pool. It drops the strategies' and the
// matchers' references to the graph, index, V(S,G), constraints and
// tracer, so that a pooled scratch pins none of them. The frontier
// stamp epoch is bumped lazily by newFrontierQueue only when INS
// actually uses it.
func putScratch(s *scratch) {
	s.uisStar = uisStarRun{stack: s.uisStar.stack[:0]}
	s.ins = insRun{}
	for i := range s.uis.matchers {
		s.uis.matchers[i].Release()
	}
	s.uis.matchers = s.uis.matchers[:0]
	scratchPool.Put(s)
}

// PrewarmScratch primes the scratch pool with count scratches whose hot
// arrays (close map, frontier stamps, uninformed-search entries) are
// sized for an n-vertex graph. The public engine calls it when it opens
// a large graph so the first query on each worker does not pay the
// allocation cliff — at 10^7 vertices those arrays are 20 bytes/vertex,
// a 200 MB first-query hiccup per pooled scratch without prewarming.
// (sync.Pool may still shed the scratches under GC pressure; this is a
// latency optimisation, not a guarantee.)
func PrewarmScratch(n, count int) {
	if n <= 0 || count <= 0 {
		return
	}
	warmed := make([]*scratch, count)
	for i := range warmed {
		s := scratchPool.Get().(*scratch)
		s.close.next(n)
		s.stamp.next(n)
		s.uis.reset(n)
		warmed[i] = s
	}
	for _, s := range warmed {
		scratchPool.Put(s)
	}
}
