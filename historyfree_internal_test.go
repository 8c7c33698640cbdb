package lscr

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"lscr/internal/graph"
	"lscr/internal/lubm"
	"lscr/internal/rdf"
)

// TestCompactedIndexIsHistoryFree: after a batch that rewrites class
// membership (every rdf:type ub:AssistantProfessor edge deleted, a few
// newly typed vertices added), Compact must leave the engine exactly
// where a fresh engine over the compacted triples starts — same
// landmarks, same answers and Stats from all four algorithms. Landmark
// selection reads its class pool off the current rdf:type edges, so no
// fact from before the batch may steer it.
func TestCompactedIndexIsHistoryFree(t *testing.T) {
	g := lubm.Generate(lubm.DefaultConfig(1))
	opts := Options{IndexSeed: 7, CompactAfter: -1}
	eng := NewEngine(FromGraph(g), opts)
	ctx := context.Background()

	typ, ok := g.LabelByName(rdf.TypePredicate)
	if !ok {
		t.Fatal("LUBM graph has no rdf:type label")
	}
	var batch []Mutation
	for _, e := range g.InWith(g.Vertex(lubm.ClassAssistantProfessor), typ) {
		batch = append(batch, Mutation{Op: OpDeleteEdge,
			Subject: g.VertexName(e.To), Label: rdf.TypePredicate, Object: lubm.ClassAssistantProfessor})
	}
	if len(batch) != 100 {
		t.Fatalf("LUBM-1 has %d AssistantProfessor instances, want 100", len(batch))
	}
	dept := "Department0.University0"
	for i := 0; i < 5; i++ {
		v := fmt.Sprintf("VisitingProfessor%d.%s", i, dept)
		batch = append(batch,
			Mutation{Op: OpAddEdge, Subject: v, Label: rdf.TypePredicate, Object: lubm.ClassFullProfessor},
			Mutation{Op: OpAddEdge, Subject: v, Label: lubm.PropWorksFor, Object: dept},
		)
	}
	if _, err := eng.Apply(ctx, batch); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if did, err := eng.Compact(ctx); err != nil || !did {
		t.Fatalf("Compact = %v, %v", did, err)
	}

	// The fresh engine's graph: the compacted triples, rebuilt with the
	// same label and vertex ID order.
	cg := eng.KG().Graph()
	b := graph.NewBuilder()
	for l := 0; l < cg.NumLabels(); l++ {
		b.Label(cg.LabelName(graph.Label(l)))
	}
	for v := 0; v < cg.NumVertices(); v++ {
		b.Vertex(cg.VertexName(graph.VertexID(v)))
	}
	cg.Triples(func(tr graph.Triple) bool {
		b.AddEdge(tr.Subject, tr.Label, tr.Object)
		return true
	})
	fresh := NewEngine(FromGraph(b.Build()), opts)

	got, want := eng.current().idx.Landmarks(), fresh.current().idx.Landmarks()
	if !slices.Equal(got, want) {
		differ := 0
		for i := range min(len(got), len(want)) {
			if got[i] != want[i] {
				differ++
			}
		}
		t.Fatalf("compacted landmarks differ from a fresh build: %d vs %d landmarks, %d positions differ",
			len(got), len(want), differ)
	}

	consts := lubm.Constraints()
	algos := []Algorithm{INS, UIS, UISStar, Conjunctive}
	rng := rand.New(rand.NewSource(13))
	var reqs []Request
	for i := 0; i < 48; i++ {
		req := Request{
			Source:    cg.VertexName(graph.VertexID(rng.Intn(cg.NumVertices()))),
			Target:    cg.VertexName(graph.VertexID(rng.Intn(cg.NumVertices()))),
			Algorithm: algos[i%len(algos)],
		}
		if i%3 != 0 { // every third request uses the whole label universe
			req.Labels = []string{
				cg.LabelName(graph.Label(rng.Intn(cg.NumLabels()))),
				cg.LabelName(graph.Label(rng.Intn(cg.NumLabels()))),
			}
		}
		if req.Algorithm == Conjunctive {
			req.Constraints = []string{consts[i%len(consts)].SPARQL, consts[(i+1)%len(consts)].SPARQL}
		} else {
			req.Constraint = consts[i%len(consts)].SPARQL
		}
		reqs = append(reqs, req)
	}
	bo := BatchOptions{Concurrency: 2}
	gotOut, wantOut := eng.QueryBatch(ctx, reqs, bo), fresh.QueryBatch(ctx, reqs, bo)
	for i := range reqs {
		a, w := gotOut[i], wantOut[i]
		if (a.Err == nil) != (w.Err == nil) || a.Err != nil && a.Err.Error() != w.Err.Error() {
			t.Fatalf("request %d (%v): error %v vs %v", i, reqs[i].Algorithm, a.Err, w.Err)
		}
		if a.Err != nil {
			continue
		}
		ar, wr := a.Response, w.Response
		if ar.Reachable != wr.Reachable || ar.Stats != wr.Stats || ar.SatisfyingVertices != wr.SatisfyingVertices {
			t.Errorf("request %d (%v): compacted {reach=%v stats=%+v vs=%d} != fresh {reach=%v stats=%+v vs=%d}",
				i, reqs[i].Algorithm, ar.Reachable, ar.Stats, ar.SatisfyingVertices,
				wr.Reachable, wr.Stats, wr.SatisfyingVertices)
		}
	}
}
