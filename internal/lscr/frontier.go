package lscr

import "lscr/internal/graph"

// keyHeap is the binary min-heap both of INS's priority structures run
// on: items are 16 bytes (packed uint64 key + vertex) and smaller keys
// pop first. It is hand-rolled so that pushes and pops neither box
// items into interfaces nor allocate; the backing arrays of H and Q
// live in the pooled scratch.
type keyHeap []heapItem

type heapItem struct {
	key uint64
	v   graph.VertexID
}

func (h keyHeap) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if h[p].key <= h[i].key {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
}

func (h keyHeap) down(i int) {
	n := len(h)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		m := l
		if r := l + 1; r < n && h[r].key < h[l].key {
			m = r
		}
		if h[i].key <= h[m].key {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// heapify establishes the heap property over arbitrary contents in
// O(n), instead of n pushes' O(n log n).
func (h keyHeap) heapify() {
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}

// popTop removes the minimum item.
func (h *keyHeap) popTop() {
	n := len(*h) - 1
	(*h)[0] = (*h)[n]
	*h = (*h)[:n]
	if n > 0 {
		h.down(0)
	}
}

const (
	fqRhoMax  = 1<<26 - 1
	fqSeqMask = 1<<33 - 1
)

// rhoCode encodes the boundary connection count D for a priority key
// so that more strongly connected regions (larger D, the smaller ρ of
// §5.2) sort lower. D is capped at fqRhoMax, so the order is exact while
// D < 2^26.
func rhoCode(d int) uint64 {
	return fqRhoMax - uint64(min(d, fqRhoMax))
}

// frontierQueue is the priority queue Q of Algorithm 4, specialised for
// the hot path: it runs on a keyHeap, and the paper's "delete the first
// added element" duplicate rule is a per-vertex sequence stamp checked
// at pop.
//
// Key layout (smaller pops first), from the high bit down:
//
//	bit 62     close[v] != T            — rule (i): T-marked first
//	bits 61-60 region/landmark rank     — rules (ii)+(iii)
//	bits 59-34 rhoCode(D(v.AF, t*.AF))  — rule (iv)
//	bit 33     region landmark explored — rule (v)
//	bits 32-0  insertion sequence       — rule (vi): FIFO
//
// Keys are snapshots: a vertex whose state changes is re-pushed by the
// search (its old entry dies by the stamp rule), so no revalidation pass
// is needed.
type frontierQueue struct {
	keyHeap
	stamp *epochArr64 // newest insertion (epoch<<33 | seq) per vertex
	seq   uint64
}

// newFrontierQueue prepares the scratch-resident queue over the pooled
// stamp array of s. Both the queue struct and its heap backing array live
// in the per-query scratch, so steady-state INS queries allocate no heap
// storage at all — the backing array's capacity survives pool round trips
// and is simply truncated here.
func newFrontierQueue(s *scratch, n int) *frontierQueue {
	s.stamp.next(n)
	q := &s.fq
	q.keyHeap = q.keyHeap[:0]
	q.stamp = &s.stamp
	q.seq = 0
	return q
}

// push inserts v with the given packed priority prefix (bits 62-33 of the
// final key; the sequence suffix is appended here).
func (q *frontierQueue) push(v graph.VertexID, prefix uint64) {
	q.seq++
	q.stamp.a[v] = q.stamp.epoch<<33 | q.seq
	key := prefix | (q.seq & fqSeqMask)
	q.keyHeap = append(q.keyHeap, heapItem{key: key, v: v})
	q.up(len(q.keyHeap) - 1)
}

// peek returns the best live element without removing it, discarding
// superseded duplicates.
func (q *frontierQueue) peek() (graph.VertexID, bool) {
	for len(q.keyHeap) > 0 {
		top := q.keyHeap[0]
		if q.stamp.a[top.v] == q.stamp.epoch<<33|(top.key&fqSeqMask) {
			return top.v, true
		}
		q.popTop()
	}
	return 0, false
}

// pop removes and returns the best live element.
func (q *frontierQueue) pop() (graph.VertexID, bool) {
	v, ok := q.peek()
	if !ok {
		return 0, false
	}
	q.popTop()
	return v, true
}
