package lscr

import (
	"fmt"
	"slices"

	"lscr/internal/graph"
	"lscr/internal/labelset"
	"lscr/internal/pattern"
)

// UIS answers the LSCR query q on g with the uninformed search of
// Algorithm 1. It evaluates the substructure constraint per passed vertex
// with SCck and can revisit a vertex once more after a satisfying vertex
// upgrades the frontier (the recall ability DFS/BFS lack, §3).
//
// Time complexity: O(|V|·(|V_S|+|E_S|+|E_?|) + |E|) (Theorem 3.3).
func UIS(g *graph.Graph, q Query) (bool, Stats, error) {
	return UISTraced(g, q, nil)
}

// UISTraced is UIS with a Tracer observing every close-state transition
// (the search tree of Definition 3.2, Figure 4).
func UISTraced(g *graph.Graph, q Query, tr Tracer) (bool, Stats, error) {
	ok, _, st, err := uis(g, MultiQuery{
		Source: q.Source, Target: q.Target, Labels: q.Labels,
		Constraints: []*pattern.Constraint{q.Constraint},
		Interrupt:   q.Interrupt,
	}, tr, false)
	return ok, st, err
}

// noNode is the parent of the root state and the end of a mask chain.
const noNode = ^uint32(0)

// uis is the one uninformed search behind UIS and UISMulti: a DFS over
// (vertex, satisfied-set) states, the set a bit mask over q.Constraints.
// Each vertex keeps the maximal antichain of masks it was reached with,
// and a state is expanded only while no recorded mask covers it. With
// one constraint the antichain is the close surjection of Definition
// 3.1 (no mask is N, {} is F, {S} is T) and the tracer sees exactly
// Algorithm 1's transitions. SCck is lazy: a vertex's bits are evaluated
// only when neither the state reaching it nor the vertex is full.
func uis(g *graph.Graph, q MultiQuery, tr Tracer, wantWitness bool) (bool, *MultiWitness, Stats, error) {
	if err := validate(g, Query{Source: q.Source, Target: q.Target}); err != nil {
		return false, nil, Stats{}, err
	}
	k := len(q.Constraints)
	if k == 0 {
		return false, nil, Stats{}, ErrNoConstraints
	}
	if k > MaxMultiConstraints {
		return false, nil, Stats{}, fmt.Errorf("%w: %d > %d", ErrTooManyConstraints, k, MaxMultiConstraints)
	}
	sc := scratchPool.Get().(*scratch)
	defer putScratch(sc)
	s := &sc.uis
	s.reset(g.NumVertices())
	// The pooled matchers, released by putScratch but kept past len,
	// recompile in place and keep their slot storage.
	s.matchers = slices.Grow(s.matchers, k)[:k]
	for i, c := range q.Constraints {
		if err := s.matchers[i].Reset(g, c); err != nil {
			return false, nil, Stats{}, fmt.Errorf("constraint %d: %w", i+1, err)
		}
	}
	full := uint16(1)<<uint(k) - 1
	i, err := s.search(g, q.Source, q.Target, q.Labels, full, tr, interruptCheck{fn: q.Interrupt})
	if err != nil {
		return false, nil, Stats{}, err
	}
	st := Stats{PassedVertices: s.passed, SearchTreeNodes: len(s.nodes), SCckCalls: s.evals * k, Satisfying: graph.NoVertex}
	if i == noNode {
		return false, nil, st, nil
	}
	var w *MultiWitness
	if wantWitness {
		w = s.witness(i, k)
	}
	if k == 1 {
		// The anchor is the vertex whose satisfaction completed the mask.
		for p := s.nodes[i].parent; p != noNode && s.nodes[p].mask == full; p = s.nodes[i].parent {
			i = p
		}
		st.Satisfying = s.nodes[i].v
	}
	return true, w, st, nil
}

// search runs Lines 1-11 from src and returns the node that reached dst
// with the full mask, or noNode when the search exhausts.
func (s *uisState) search(g *graph.Graph, src, dst graph.VertexID, labels labelset.Set, full uint16, tr Tracer, ic interruptCheck) (uint32, error) {
	// Line 1-2: the root state, node 0, is s with the constraints s
	// satisfies.
	m := s.satBits(src)
	s.ent[src] = uisEntry{epoch: s.epoch, mask: m, sat: m}
	nodes, stack, passed, evals := append(s.nodes, uisNode{v: src, parent: noNode, mask: m}), append(s.stack, 0), 1, 1
	defer func() { s.nodes, s.stack, s.passed, s.evals = nodes, stack, passed, evals }()
	if tr != nil {
		tr.Transition(src, closeOf(m, full), graph.NoVertex, 0, false)
	}
	// A zero-length path from s suffices when s = t and s satisfies all.
	if src == dst && m == full {
		return 0, nil
	}

	// Lines 3-11.
	ents, epoch := s.ent, s.epoch
	for len(stack) > 0 {
		ui := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		u, um := nodes[ui].v, nodes[ui].mask
		if x := ents[u].mask; x != um && x&um == um {
			// A newer state of u covers this one and, pushed later, was
			// expanded already: all this one could record is dominated.
			continue
		}
		// The label-run view walks only the runs inside the label set. The
		// run scan is ticked up front so cancellation stays prompt even
		// when every run is rejected (on the graph package's one-run-per-
		// edge test view Len() is the degree).
		rs := g.OutRuns(u)
		if err := ic.tickN(rs.Len()); err != nil {
			return noNode, err
		}
		for ri, n := 0, rs.Len(); ri < n; ri++ {
			if !labels.Contains(rs.Label(ri)) {
				continue
			}
			run := rs.Run(ri)
			if err := ic.tickN(len(run)); err != nil {
				return noNode, err
			}
			for _, e := range run {
				v := e.To
				if ent := &ents[v]; ent.epoch&^olderMasks != epoch {
					// First visit (case 2): SCck(v) unless u's state is
					// full already (case 1).
					var sat uint16
					if um != full {
						sat = s.satBits(v)
						evals++
					}
					m = um | sat
					*ent = uisEntry{epoch: epoch, mask: m, sat: sat}
					passed++
				} else {
					// Revisit: v's bits were evaluated on its first visit
					// unless v holds the full mask, which nothing improves.
					if ent.mask == full {
						continue
					}
					if m = um | ent.sat; m&ent.mask == m || !s.raise(ent, v, m) {
						continue
					}
				}
				vi := uint32(len(nodes))
				nodes = append(nodes, uisNode{v: v, parent: ui, mask: m, label: e.Label})
				if tr != nil {
					tr.Transition(v, closeOf(m, full), u, e.Label, false)
				}
				// Lines 10-11.
				if v == dst && m == full {
					return vi, nil
				}
				stack = append(stack, vi)
			}
		}
	}
	return noNode, nil
}

// closeOf is the close state a recorded mask stands for.
func closeOf(m, full uint16) State {
	if m == full {
		return T
	}
	return F
}

// uisEntry is one vertex's record: the newest mask of its antichain and
// the SCck memo sat, valid whenever mask is not full (the first visit
// skips SCck only when it records the full mask). Entries with a stale
// epoch are unvisited. The search reads an entry per edge, so it is 8
// bytes; a conjunction's rarer older masks live in the chain arena.
type uisEntry struct {
	epoch     uint32 // query epoch, with olderMasks in the low bit
	mask, sat uint16
}

// olderMasks marks an entry whose antichain has older masks, chained
// from uisState.older[v].
const olderMasks = 1

// uisNode is one recorded state (v, mask): a search-tree node. parent is
// the state whose expansion recorded it and label the edge taken, so
// witness hops and the anchor are read back along parent links.
type uisNode struct {
	v      graph.VertexID
	parent uint32
	mask   uint16
	label  graph.Label
}

// maskLink is one older antichain mask.
type maskLink struct {
	mask uint16
	next uint32
}

// uisState is the search's pooled state (one per scratch).
type uisState struct {
	ent   []uisEntry
	epoch uint32 // the current query's epoch, shifted left by one
	nodes []uisNode
	stack []uint32
	// older[v] heads v's chain of older masks when v's entry has
	// olderMasks; only conjunctions chain, so it is sized on first use.
	older    []uint32
	chain    []maskLink
	matchers []pattern.Matcher
	passed   int
	evals    int // vertices whose satisfied bits were evaluated
}

// reset prepares s for a fresh query over n vertices.
func (s *uisState) reset(n int) {
	if len(s.ent) < n || s.epoch >= ^uint32(0)-1 {
		s.ent = make([]uisEntry, withSlack(n))
		s.epoch = 0
	}
	s.epoch += 2
	s.nodes = s.nodes[:0]
	s.stack = s.stack[:0]
	s.chain = s.chain[:0]
}

// satBits is SCck against every constraint: bit i is set when v
// satisfies constraint i. The search counts the vertices it evaluates;
// keeping the count out of here lets satBits inline into the edge loop.
func (s *uisState) satBits(v graph.VertexID) (bits uint16) {
	for i := range s.matchers {
		if s.matchers[i].Check(v) {
			bits |= 1 << i
		}
	}
	return bits
}

// raise adds m to the antichain of the visited vertex v (entry e),
// whose newest mask does not cover m, unless an older mask does. Masks
// m covers leave the antichain.
func (s *uisState) raise(e *uisEntry, v graph.VertexID, m uint16) bool {
	head := noNode
	if e.epoch&olderMasks != 0 {
		head = s.older[v]
	}
	// One pass suffices: if an older mask covers m, no mask of the
	// antichain is covered by m, so nothing was unlinked before.
	for link := &head; *link != noNode; {
		switch x := s.chain[*link].mask; {
		case x&m == m:
			return false
		case m&x == x:
			*link = s.chain[*link].next
		default:
			link = &s.chain[*link].next
		}
	}
	if m&e.mask != e.mask {
		s.chain = append(s.chain, maskLink{mask: e.mask, next: head})
		head = uint32(len(s.chain) - 1)
	}
	e.epoch, e.mask = s.epoch, m
	if head != noNode {
		if len(s.older) < len(s.ent) {
			s.older = make([]uint32, len(s.ent))
		}
		s.older[v] = head
		e.epoch |= olderMasks
	}
	return true
}

// witness reads the walk to node i back along parent links. Each
// constraint's bit enters the mask at the first walk vertex satisfying
// it, which names SatisfiedBy.
func (s *uisState) witness(i uint32, k int) *MultiWitness {
	w := &MultiWitness{SatisfiedBy: make([]graph.VertexID, k)}
	for ; i != noNode; i = s.nodes[i].parent {
		n, before := s.nodes[i], uint16(0)
		if n.parent != noNode {
			p := s.nodes[n.parent]
			w.Hops = append(w.Hops, Hop{From: p.v, Label: n.label, To: n.v})
			before = p.mask
		}
		for c := range w.SatisfiedBy {
			if (n.mask&^before)&(1<<uint(c)) != 0 {
				w.SatisfiedBy[c] = n.v
			}
		}
	}
	slices.Reverse(w.Hops)
	return w
}
