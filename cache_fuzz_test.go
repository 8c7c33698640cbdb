package lscr

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"lscr/internal/graph"
	"lscr/internal/testkg"
)

// cacheFuzzTexts are the constraints FuzzMutateConstraintCache queries
// at every epoch. They read labels l0 and l1 only — the schedule's
// edges on l2 touch none of them — and the last two name a label and a
// vertex that exist only once the schedule interns them.
var cacheFuzzTexts = []string{
	`SELECT ?x WHERE { ?x <l0> ?y. }`,
	`SELECT ?x WHERE { ?y <l1> ?x. }`,
	`SELECT ?x WHERE { ?x <l0> ?y. ?y <l1> ?z. }`,
	`SELECT ?x WHERE { ?x <l1> <u3>. }`,
	`SELECT ?x WHERE { ?x <lnew> ?y. }`,
	`SELECT ?x WHERE { ?x <l0> <unew>. }`,
}

// FuzzMutateConstraintCache is the oracle for carrying compiled
// constraints across epochs: an engine with the constraint cache and
// one without it (ConstraintCacheSize -1) take the same random schedule
// of Apply batches and Compacts, and at every epoch they must answer
// every request bit for bit alike — answer, Stats, SatisfyingVertices,
// witness and error — under all four algorithms, with and without a
// witness. Which constraints an epoch queries is part of the schedule,
// so entries a batch invalidated can sit in the cache across later
// batches and seals.
//
// The script bytes are consumed two at a time as (op, a):
//
//	op%8 == 0..1  add an edge on l0 or l1, the constraints' labels
//	op%8 == 2..3  add an edge on l2, which no constraint reads
//	op%8 == 4     delete the a-th surviving edge
//	op%8 == 5     intern: add vertex unew, add label lnew, or add an
//	              edge through them
//	op%8 == 6     close the batch
//	op%8 == 7     close the batch and compact both engines
//
// A delete closes its batch at once. Every closed batch and compaction
// queries the constraints whose bit is set in a (all of them after a
// delete).
func FuzzMutateConstraintCache(f *testing.F) {
	f.Add(int64(1), []byte{})
	f.Add(int64(2), []byte{2, 5, 6, 0, 1, 6, 7, 0, 3, 9, 6})
	f.Add(int64(3), []byte{5, 0, 6, 5, 1, 6, 5, 2, 6, 0, 3, 7, 4, 0, 6})
	f.Add(int64(4), []byte{1, 7, 4, 3, 6, 2, 8, 7, 0, 0, 5, 3, 6, 4, 9, 7})
	f.Fuzz(func(t *testing.T, seed int64, script []byte) {
		if len(script) > 64 {
			script = script[:64]
		}
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(12) + 6
		g := testkg.Random(rng, n, rng.Intn(3*n)+n, 3)
		opts := Options{Landmarks: rng.Intn(5) + 1, IndexSeed: seed, CompactAfter: -1}
		cached := NewEngine(FromGraph(g), opts)
		opts.ConstraintCacheSize = -1
		plain := NewEngine(FromGraph(g), opts)
		ctx := context.Background()

		pairs := make([][2]string, 3)
		for i := range pairs {
			pairs[i] = [2]string{fmt.Sprintf("u%d", rng.Intn(n)), fmt.Sprintf("u%d", rng.Intn(n))}
		}
		compare := func(step int, mask byte) {
			t.Helper()
			for _, p := range pairs {
				for ti, text := range cacheFuzzTexts {
					if mask&(1<<ti) == 0 {
						continue
					}
					reqs := []Request{}
					for _, alg := range []Algorithm{INS, UIS, UISStar, Conjunctive} {
						reqs = append(reqs, Request{Source: p[0], Target: p[1], Constraint: text, Algorithm: alg})
					}
					reqs = append(reqs, Request{Source: p[0], Target: p[1],
						Constraints: []string{text, cacheFuzzTexts[(ti+1)%len(cacheFuzzTexts)]}})
					for _, req := range reqs {
						for _, w := range []bool{false, true} {
							req.WantWitness = w
							got, gerr := cached.Query(ctx, req)
							want, werr := plain.Query(ctx, req)
							got.Elapsed, want.Elapsed = 0, 0
							if fmt.Sprint(gerr) != fmt.Sprint(werr) || !reflect.DeepEqual(got, want) {
								t.Fatalf("step %d, %+v:\ncached   %+v, %v\nuncached %+v, %v", step, req, got, gerr, want, werr)
							}
						}
					}
				}
			}
		}

		var batch []Mutation
		apply := func(step int, mask byte) {
			t.Helper()
			if len(batch) == 0 {
				return
			}
			got, gerr := cached.Apply(ctx, batch)
			want, werr := plain.Apply(ctx, batch)
			if fmt.Sprint(gerr) != fmt.Sprint(werr) || got != want {
				t.Fatalf("step %d, Apply %v: cached %+v, %v; uncached %+v, %v", step, batch, got, gerr, want, werr)
			}
			batch = batch[:0]
			compare(step, mask)
		}
		// vertex names an existing vertex, or unew once it is interned.
		vertex := func(a byte) string {
			kg := cached.KG().Graph()
			if i := int(a) % (n + 1); i < n || kg.Vertex("unew") == graph.NoVertex {
				return fmt.Sprintf("u%d", int(a)%n)
			}
			return "unew"
		}

		compare(-1, 0xff)
		for i := 0; i+1 < len(script); i += 2 {
			op, a := script[i], script[i+1]
			switch op % 8 {
			case 0, 1, 2, 3:
				label := "l2"
				if op%8 < 2 {
					label = fmt.Sprintf("l%d", op%2)
				}
				batch = append(batch, Mutation{Op: OpAddEdge, Subject: vertex(a), Label: label, Object: vertex(a / 3)})
			case 4:
				var live []graph.Triple
				cached.KG().Graph().Triples(func(tr graph.Triple) bool {
					live = append(live, tr)
					return true
				})
				if len(live) > 0 {
					tr := live[int(a)%len(live)]
					kg := cached.KG().Graph()
					batch = append(batch, Mutation{Op: OpDeleteEdge, Subject: kg.VertexName(tr.Subject),
						Label: kg.LabelName(tr.Label), Object: kg.VertexName(tr.Object)})
					apply(i, 0xff) // a later op could delete the same instance again
				}
			case 5:
				switch a % 3 {
				case 0:
					batch = append(batch, Mutation{Op: OpAddVertex, Subject: "unew"})
				case 1:
					batch = append(batch, Mutation{Op: OpAddLabel, Label: "lnew"})
				case 2:
					batch = append(batch, Mutation{Op: OpAddEdge, Subject: vertex(a), Label: "lnew", Object: "unew"})
				}
			case 6:
				apply(i, a)
			case 7:
				apply(i, a)
				gdid, gerr := cached.Compact(ctx)
				wdid, werr := plain.Compact(ctx)
				if gdid != wdid || gerr != nil || werr != nil {
					t.Fatalf("step %d, Compact: cached %v, %v; uncached %v, %v", i, gdid, gerr, wdid, werr)
				}
				compare(i, a)
			}
		}
		apply(len(script), 0xff)
	})
}
