package lscr

import (
	"context"
	"fmt"
	"hash/fnv"
	"testing"

	"lscr/internal/graph"
	"lscr/internal/lubm"
	"lscr/internal/pattern"
	"lscr/internal/sparql"
	"lscr/internal/workload"
)

// pinnedResponses is the FNV-64 digest of every Engine.Query answer
// TestQueryResponsesPinned asks for. Every field a caller sees but
// Elapsed goes into it, so it changes only when an answer, a count, a
// witness, a trace or an error does.
const pinnedResponses = 0x9d2e424486f538a4

// TestQueryResponsesPinned runs Engine.Query over LUBM-1 and Table 3's
// constraints in every request shape — each algorithm with and without
// a witness, traced single-constraint requests, two-constraint
// conjunctions, an unsatisfiable text and the rejected shapes — and
// pins a digest of the responses, so a rework of the request path
// cannot change what any request answers unnoticed.
func TestQueryResponsesPinned(t *testing.T) {
	cfg := lubm.DefaultConfig(1)
	cfg.Seed = 1
	g := lubm.Generate(cfg)
	kg := FromGraph(g)
	eng := NewEngine(kg, Options{IndexSeed: 1, CompactAfter: -1})
	noIndex := NewEngine(kg, Options{SkipIndex: true, CompactAfter: -1})
	ctx := context.Background()

	h := fnv.New64a()
	ask := func(e *Engine, req Request) {
		resp, err := e.Query(ctx, req)
		if err != nil {
			fmt.Fprintf(h, "error %q\n", err.Error())
			return
		}
		fmt.Fprintf(h, "%v %+v %d %v %q\n", resp.Reachable, resp.Stats, resp.SatisfyingVertices, resp.Algorithm, resp.TraceDOT)
		if w := resp.Witness; w != nil {
			fmt.Fprintf(h, "witness %v %q\n", w.Hops, w.SatisfiedBy)
		}
	}

	const unsat = `SELECT ?x WHERE { ?x <no-such-label> ?y. }`
	table3 := lubm.Constraints()
	var first Request
	for i, nc := range table3 {
		cons, vs := selectTable3(t, g, nc.SPARQL)
		trueQ, falseQ, err := workload.Generate(g, cons, vs, workload.Config{Count: 3, Seed: int64(200 + i)})
		if err != nil {
			t.Fatalf("%s: %v", nc.Name, err)
		}
		other := table3[(i+1)%len(table3)].SPARQL
		for _, q := range append(trueQ, falseQ...) {
			base := Request{Source: g.VertexName(q.Source), Target: g.VertexName(q.Target)}
			for _, l := range q.Labels.Labels() {
				base.Labels = append(base.Labels, g.LabelName(l))
			}
			if first.Source == "" {
				first = base
			}
			for _, alg := range []Algorithm{INS, UIS, UISStar, Conjunctive} {
				for _, witness := range []bool{false, true} {
					req := base
					req.Constraint, req.Algorithm, req.WantWitness = nc.SPARQL, alg, witness
					ask(eng, req)
				}
				req := base
				req.Constraint, req.Algorithm = unsat, alg
				ask(eng, req)
				if alg != Conjunctive {
					req.Constraint, req.WantTrace = nc.SPARQL, true
					ask(eng, req)
				}
			}
			for _, alg := range []Algorithm{INS, Conjunctive} {
				for _, witness := range []bool{false, true} {
					req := base
					req.Constraints, req.Algorithm, req.WantWitness = []string{nc.SPARQL, other}, alg, witness
					ask(eng, req)
				}
			}
			req := base
			req.Constraints = []string{nc.SPARQL, unsat}
			ask(eng, req)
		}
	}

	valid := table3[0].SPARQL
	seventeen := make([]string, 17)
	for i := range seventeen {
		seventeen[i] = table3[i%len(table3)].SPARQL
	}
	rejected := []Request{
		{Constraint: valid, Algorithm: Algorithm(9)},
		{Constraint: valid, Constraints: []string{valid}},
		{Constraints: []string{valid, valid}, WantTrace: true},
		{Constraints: []string{valid, valid}, Algorithm: UIS},
		{Constraints: []string{valid, valid}, Algorithm: UISStar},
		{Algorithm: INS},
		{Algorithm: UIS},
		{Algorithm: Conjunctive},
		{Constraints: seventeen},
		{Constraint: "SELECT garbage"},
		{Constraint: `SELECT ?z WHERE { ?x <no-such-label> ?y. }`, Algorithm: UIS},
	}
	for _, req := range rejected {
		req.Source, req.Target, req.Labels = first.Source, first.Target, first.Labels
		ask(eng, req)
	}
	ask(eng, Request{Source: "no-such-vertex", Target: first.Target, Constraint: valid})
	ask(eng, Request{Source: first.Source, Target: first.Target, Labels: []string{"no-such-label"}, Constraint: valid})
	ask(noIndex, Request{Source: first.Source, Target: first.Target, Constraint: valid})
	ask(noIndex, Request{Source: first.Source, Target: first.Target, Constraint: valid, Algorithm: UIS})

	if got := h.Sum64(); got != pinnedResponses {
		t.Errorf("response digest %#x, pinned %#x", got, uint64(pinnedResponses))
	}
}

// selectTable3 compiles a Table 3 constraint against g and evaluates
// V(S,G) with the standalone SPARQL layer.
func selectTable3(t *testing.T, g *graph.Graph, text string) (*pattern.Constraint, []graph.VertexID) {
	t.Helper()
	q, err := sparql.Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	cons, sat, err := q.Compile(g)
	if err != nil || !sat {
		t.Fatalf("compile %s: sat=%v err=%v", text, sat, err)
	}
	m, err := pattern.NewMatcher(g, cons)
	if err != nil {
		t.Fatal(err)
	}
	return cons, m.MatchAll()
}
