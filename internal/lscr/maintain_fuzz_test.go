package lscr

import (
	"fmt"
	"math/rand"
	"testing"

	"lscr/internal/graph"
	"lscr/internal/testkg"
)

// FuzzIndexMaintenance fuzzes mutation scripts against index
// maintenance (ApplyMutations) with a rebuild-from-scratch oracle: after every batch
// the maintained index must be structurally identical — the materialised
// IIEntries/EITEntries enumeration orders, D rows and dirty flags — to
// RebuildFrozen on the batch's final view.
//
// The script bytes are consumed three at a time as (op, a, b):
//
//	op%4 == 0..1  insert an edge between existing vertices (label op/4)
//	op%4 == 2     insert via (possibly brand-new) named vertex and label
//	op%4 == 3     delete the (a<<8|b)-th surviving edge instance
//
// Every 4 ops close a batch (commit + maintain + compare), so one input
// exercises several mutation prefixes, interleavings of inserts and
// deletes, and maintenance on top of already-derived indexes.
func FuzzIndexMaintenance(f *testing.F) {
	f.Add(int64(1), []byte{})
	f.Add(int64(2), []byte{0, 1, 2, 4, 3, 0, 3, 0, 1})
	f.Add(int64(3), []byte{2, 9, 9, 2, 10, 1, 3, 0, 0, 0, 9, 3})
	f.Add(int64(4), []byte{3, 0, 0, 3, 0, 1, 3, 0, 2, 0, 5, 6, 1, 2, 3})
	f.Fuzz(func(t *testing.T, seed int64, script []byte) {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(20) + 4
		g := testkg.Random(rng, n, rng.Intn(3*n), rng.Intn(3)+1)
		cur := NewLocalIndex(g, IndexParams{K: rng.Intn(6) + 1, Seed: seed})

		var triples []graph.Triple
		reload := func() {
			triples = triples[:0]
			cur.Graph().Triples(func(tr graph.Triple) bool {
				triples = append(triples, tr)
				return true
			})
		}
		reload()

		d := graph.NewDelta(cur.Graph())
		staged := 0
		commit := func() {
			if staged == 0 {
				return
			}
			ops := d.EdgeOps()
			g2, err := d.Commit()
			if err != nil {
				t.Fatalf("commit: %v", err)
			}
			next, _ := cur.ApplyMutations(g2, ops)
			if err := next.EqualStructure(next.RebuildFrozen(g2)); err != nil {
				t.Fatalf("maintained index diverged from rebuild oracle: %v", err)
			}
			cur = next
			reload()
			d = graph.NewDelta(g2)
			staged = 0
		}

		for i := 0; i+2 < len(script); i += 3 {
			op, a, b := script[i], script[i+1], script[i+2]
			nV := cur.Graph().NumVertices() + d.NewVertices()
			switch op % 4 {
			case 0, 1:
				s := graph.VertexID(int(a) % nV)
				t2 := graph.VertexID(int(b) % nV)
				l := graph.Label(int(op/4) % cur.Graph().NumLabels())
				if err := d.AddEdge(s, l, t2); err != nil {
					t.Fatalf("add-edge: %v", err)
				}
				staged++
			case 2:
				s := fmt.Sprintf("fz%d", int(a)%6)
				o := fmt.Sprintf("fz%d", int(b)%6)
				l := fmt.Sprintf("fzl%d", int(a+b)%3)
				if err := d.AddEdgeNames(s, l, o); err != nil {
					t.Fatalf("add-edge-names: %v", err)
				}
				staged++
			case 3:
				if len(triples) == 0 {
					continue
				}
				tr := triples[(int(a)<<8|int(b))%len(triples)]
				// The instance may already be exhausted by earlier staged
				// deletes of this batch; that is not a valid op, skip it.
				if err := d.DeleteEdge(tr.Subject, tr.Label, tr.Object); err != nil {
					continue
				}
				staged++
			}
			if staged >= 4 {
				commit()
			}
		}
		commit()
	})
}
