package main

import (
	"context"
	"fmt"
	"math/rand"

	"lscr"
	"lscr/internal/graph"
	"lscr/internal/lubm"
)

// mutatedPredicates are the only labels write batches touch. No S1–S5
// constraint mentions them and no pooled query's label set holds them,
// so a pooled query's answer is the same at every epoch and the oracle's
// answer stays the expected one while writes land.
var mutatedPredicates = []string{
	lubm.PropPublicationAuthor,
	lubm.PropTeachingAssistant,
	lubm.PropHeadOf,
	lubm.PropHasSubOrganization,
}

const (
	// Each batch adds batchAdds edges and deletes the batchAdds edges
	// added deleteLag batches earlier, so the graph's size is steady.
	batchAdds = 8
	deleteLag = 50
	batchOps  = 2 * batchAdds
)

// mutator generates write batches and keeps the benchmark's own log of
// the edges acknowledged writes left in the graph.
type mutator struct {
	rng *rand.Rand
	// subjects and objects hold, per mutated predicate, the vertices
	// that already carry it on that side.
	subjects, objects [][]string
	// recent[b%deleteLag] are the adds of batch b, deleted by batch
	// b+deleteLag.
	recent  [deleteLag][]lscr.Mutation
	batches int
	// live counts the added edges not yet deleted.
	live map[lscr.Mutation]int
}

func newMutator(rng *rand.Rand, g *graph.Graph) *mutator {
	m := &mutator{
		rng:      rng,
		subjects: make([][]string, len(mutatedPredicates)),
		objects:  make([][]string, len(mutatedPredicates)),
		live:     map[lscr.Mutation]int{},
	}
	for i, name := range mutatedPredicates {
		l, ok := g.LabelByName(name)
		if !ok {
			continue
		}
		seenS, seenO := map[graph.VertexID]bool{}, map[graph.VertexID]bool{}
		for v := 0; v < g.NumVertices(); v++ {
			for _, e := range g.OutWith(graph.VertexID(v), l) {
				if !seenS[graph.VertexID(v)] {
					seenS[graph.VertexID(v)] = true
					m.subjects[i] = append(m.subjects[i], g.VertexName(graph.VertexID(v)))
				}
				if !seenO[e.To] {
					seenO[e.To] = true
					m.objects[i] = append(m.objects[i], g.VertexName(e.To))
				}
			}
		}
	}
	return m
}

// next returns the next batch: batchAdds edges between existing
// vertices, then the deletion of the edges added deleteLag batches ago.
// The batch only counts once ack reports it acknowledged.
func (m *mutator) next() []lscr.Mutation {
	batch := make([]lscr.Mutation, 0, batchOps)
	for len(batch) < batchAdds {
		p := m.rng.Intn(len(mutatedPredicates))
		if len(m.subjects[p]) == 0 {
			continue
		}
		batch = append(batch, lscr.Mutation{
			Op:      lscr.OpAddEdge,
			Subject: m.subjects[p][m.rng.Intn(len(m.subjects[p]))],
			Label:   mutatedPredicates[p],
			Object:  m.objects[p][m.rng.Intn(len(m.objects[p]))],
		})
	}
	for _, add := range m.recent[m.batches%deleteLag] {
		add.Op = lscr.OpDeleteEdge
		batch = append(batch, add)
	}
	return batch
}

// ack records an acknowledged batch in the edge log.
func (m *mutator) ack(batch []lscr.Mutation) {
	for _, mu := range batch[batchAdds:] {
		mu.Op = lscr.OpAddEdge
		if m.live[mu]--; m.live[mu] == 0 {
			delete(m.live, mu)
		}
	}
	adds := batch[:batchAdds]
	for _, mu := range adds {
		m.live[mu]++
	}
	m.recent[m.batches%deleteLag] = adds
	m.batches++
}

// liveEdges is the number of added edges the log says are in the graph.
func (m *mutator) liveEdges() int {
	n := 0
	for _, c := range m.live {
		n += c
	}
	return n
}

// reference rebuilds, from the base graph and the edge log alone, the
// graph an engine must hold once every acknowledged batch is applied.
func (m *mutator) reference(base *graph.Graph) *graph.Graph {
	b := graph.NewBuilder()
	base.Triples(func(t graph.Triple) bool {
		b.AddEdgeNames(base.VertexName(t.Subject), base.LabelName(t.Label), base.VertexName(t.Object))
		return true
	})
	for mu, c := range m.live {
		for ; c > 0; c-- {
			b.AddEdgeNames(mu.Subject, mu.Label, mu.Object)
		}
	}
	return b.Build()
}

// probes is the size of the final-state probe set.
const probes = 100

// verifyFinalState is the durability check of an acknowledged-write
// store. A durable engine is closed and reopened from its directory
// first. The engine's edge count and its answers to a probe set (drawn
// over every label, the mutated ones included) must match the reference
// graph rebuilt from the benchmark's own edge log. The reopened engine
// replaces inst.eng.
func (inst *instance) verifyFinalState(ctx context.Context, gate *tally) error {
	if inst.w.durable {
		if err := inst.eng.Close(); err != nil {
			return fmt.Errorf("close store: %w", err)
		}
		eng, err := lscr.Open(inst.dir, lscr.Options{Durability: lscr.DurabilitySync})
		if err != nil {
			return fmt.Errorf("reopen store: %w", err)
		}
		inst.eng = eng
	}
	ref := inst.mut.reference(inst.base)
	got, want := inst.eng.KG().NumEdges(), inst.base.NumEdges()+inst.mut.liveEdges()
	gate.check(got == want && ref.NumEdges() == want,
		"edge count after %d acknowledged batches: engine %d, edge log %d", inst.mut.batches, got, want)

	n := probes
	if len(inst.pool) < n {
		n = len(inst.pool)
	}
	gen := newGenerator(rand.New(rand.NewSource(inst.seed+1)), ref, newOracle(ref), nil)
	pool, err := gen.searchPool(n, inst.w.mix)
	if err != nil {
		return fmt.Errorf("probe set: %w", err)
	}
	for _, q := range pool {
		resp, err := inst.eng.Query(ctx, q.req)
		gate.checkRead(&q, resp.Reachable, resp.Witness != nil, err)
	}
	return nil
}
