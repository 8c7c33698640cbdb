package lscr

import "lscr/internal/graph"

// priorityKey orders both of INS's evaluation-function structures. Keys
// compare lexicographically; smaller is better. Fields are filled
// differently by H and Q (see their comparators).
type priorityKey struct {
	r0, r1, r2, r3 int
	id             graph.VertexID
	seq            int
}

func (a priorityKey) less(b priorityKey) bool {
	switch {
	case a.r0 != b.r0:
		return a.r0 < b.r0
	case a.r1 != b.r1:
		return a.r1 < b.r1
	case a.r2 != b.r2:
		return a.r2 < b.r2
	case a.r3 != b.r3:
		return a.r3 < b.r3
	case a.seq != b.seq:
		return a.seq < b.seq
	}
	return a.id < b.id
}

type pqItem struct {
	v   graph.VertexID
	key priorityKey
	seq int // insertion sequence; independent of key.seq
}

// pqHeap is a binary min-heap of pqItems, hand-rolled like the frontier
// queue's so that pushes and pops neither box items into interfaces nor
// allocate: INS pushes every vertex of V(S,G), tens of thousands on
// LUBM's S3, into H, whose backing array lives in the pooled scratch.
type pqHeap []pqItem

func (h pqHeap) up(j int) {
	for j > 0 {
		i := (j - 1) / 2
		if !h[j].key.less(h[i].key) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

func (h pqHeap) down(i int) {
	n := len(h)
	for {
		j := 2*i + 1
		if j >= n {
			return
		}
		if r := j + 1; r < n && h[r].key.less(h[j].key) {
			j = r
		}
		if !h[j].key.less(h[i].key) {
			return
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}

// popTop removes the minimum item.
func (h *pqHeap) popTop() {
	old := *h
	n := len(old) - 1
	old[0] = old[n]
	*h = old[:n]
	(*h).down(0)
}

// lazyPQ is a priority structure whose element priorities depend on
// mutable search state (the close surjection, and — for Q — the current
// LCS target). Keys are snapshotted at push time and revalidated at pop:
// a popped element whose key is stale is re-pushed with its current key.
// State transitions are monotone (N -> F -> T) and targets change only
// between LCS invocations, so revalidation terminates.
//
// lazyPQ also implements the paper's duplicate rule for Q ("if x and y
// represent a same vertex, Q deletes the first added element"): each push
// bumps a per-vertex version; pops discard entries whose version is not
// current.
type lazyPQ struct {
	h          pqHeap
	keyOf      func(graph.VertexID, int) priorityKey
	version    []int32 // per-vertex latest insertion seq (dedup only)
	seq        int
	dedup      bool
	revalidate bool
}

// newLazyPQ builds a queue whose keys come from keyOf (seq is the
// insertion sequence number implementing FIFO tie-breaks). With dedup,
// later pushes of a vertex invalidate earlier entries; n is the vertex
// universe size the dedup table covers. With revalidate, pops settle
// stale keys of the top element — needed when entries sit in the queue
// across state changes without being re-pushed (INS's H); the hot
// frontier queue Q re-pushes on every state change instead, so it skips
// revalidation and pops by snapshot key.
func newLazyPQ(keyOf func(graph.VertexID, int) priorityKey, dedup, revalidate bool, n int) *lazyPQ {
	q := &lazyPQ{keyOf: keyOf, dedup: dedup, revalidate: revalidate}
	if dedup {
		q.version = make([]int32, n)
	}
	return q
}

func (q *lazyPQ) push(v graph.VertexID) {
	q.seq++
	if q.dedup {
		q.version[v] = int32(q.seq)
	}
	q.h = append(q.h, pqItem{v: v, key: q.keyOf(v, q.seq), seq: q.seq})
	q.h.up(len(q.h) - 1)
}

// peek returns the best current element without removing it. It settles
// stale keys of the top (an element whose priority worsened after being
// pushed sinks back) and drops superseded duplicates. Elements whose
// priority *improved* while buried surface only when re-pushed — the
// search algorithms re-push on every state change, and pop order never
// affects correctness, only guidance quality.
func (q *lazyPQ) peek() (graph.VertexID, bool) {
	for len(q.h) > 0 {
		top := q.h[0]
		if q.dedup && q.version[top.v] != int32(top.seq) {
			q.h.popTop() // superseded duplicate
			continue
		}
		if q.revalidate {
			cur := q.keyOf(top.v, top.key.seq)
			if cur != top.key {
				q.h[0].key = cur
				q.h.down(0)
				continue
			}
		}
		return top.v, true
	}
	return 0, false
}

// pop removes and returns the best element.
func (q *lazyPQ) pop() (graph.VertexID, bool) {
	v, ok := q.peek()
	if !ok {
		return 0, false
	}
	q.h.popTop()
	return v, true
}

func (q *lazyPQ) empty() bool {
	_, ok := q.peek()
	return !ok
}
