package lscr_test

import (
	"fmt"
	"strings"
	"testing"

	"lscr/internal/graph"
	"lscr/internal/lscr"
	"lscr/internal/lubm"
	"lscr/internal/pattern"
	"lscr/internal/sparql"
	"lscr/internal/workload"
)

// workSums totals one algorithm's Stats over a query group.
type workSums struct{ Passed, TreeNodes, SCck int }

func (s *workSums) add(st lscr.Stats) {
	s.Passed += st.PassedVertices
	s.TreeNodes += st.SearchTreeNodes
	s.SCck += st.SCckCalls
}

// pinnedStats holds, per Table 3 constraint, the Stats sums of every
// algorithm over the true and false groups TestSearchStatsPinned
// generates. Search order is paper-visible (Figures 10-14 plot passed
// vertices), so a change to any value here is a change to what the
// repository reproduces, not a refactor.
var pinnedStats = map[string]map[string]workSums{
	"S1": {
		"INS":      {20212, 20225, 0},
		"UIS":      {20171, 23207, 4356},
		"UIS*":     {32315, 47352, 0},
		"UISMulti": {20171, 23207, 20171},
	},
	"S2": {
		"INS":      {17540, 22681, 0},
		"UIS":      {18889, 21491, 8521},
		"UIS*":     {29544, 42974, 0},
		"UISMulti": {18889, 21491, 18889},
	},
	"S3": {
		"INS":      {14268, 15232, 0},
		"UIS":      {16573, 17391, 4446},
		"UIS*":     {28879, 39685, 0},
		"UISMulti": {16573, 17391, 16573},
	},
	"S4": {
		"INS":      {9741, 10850, 0},
		"UIS":      {11213, 13015, 1978},
		"UIS*":     {27830, 39467, 0},
		"UISMulti": {11213, 13015, 11213},
	},
	"S5": {
		"INS":      {28489, 39592, 0},
		"UIS":      {27046, 43937, 26101},
		"UIS*":     {26575, 41981, 0},
		"UISMulti": {27046, 43937, 27046},
	},
}

// TestSearchStatsPinned runs INS, UIS, UIS* and a one-constraint
// UISMulti over the paper's workload on LUBM-1 and pins the sums of
// their Stats, so a refactor of a search's priority structures or
// expansion order cannot change the work it does unnoticed.
func TestSearchStatsPinned(t *testing.T) {
	cfg := lubm.DefaultConfig(1)
	cfg.Seed = 1
	g := lubm.Generate(cfg)
	idx := lscr.NewLocalIndex(g, lscr.IndexParams{Seed: 1})

	got := map[string]map[string]workSums{}
	for i, nc := range lubm.Constraints() {
		cons, vs := compileTable3(t, g, nc)
		trueQ, falseQ, err := workload.Generate(g, cons, vs, workload.Config{Count: 6, Seed: int64(100 + i)})
		if err != nil {
			t.Fatalf("%s: %v", nc.Name, err)
		}
		sums := map[string]workSums{}
		for _, q := range append(trueQ, falseQ...) {
			runs := []struct {
				algo string
				run  func() (bool, lscr.Stats, error)
			}{
				{"INS", func() (bool, lscr.Stats, error) { return lscr.INS(g, idx, q.Query, vs) }},
				{"UIS", func() (bool, lscr.Stats, error) { return lscr.UIS(g, q.Query) }},
				{"UIS*", func() (bool, lscr.Stats, error) { return lscr.UISStar(g, q.Query, vs) }},
				{"UISMulti", func() (bool, lscr.Stats, error) {
					return lscr.UISMulti(g, lscr.MultiQuery{
						Source: q.Source, Target: q.Target, Labels: q.Labels,
						Constraints: []*pattern.Constraint{cons},
					})
				}},
			}
			for _, r := range runs {
				ans, st, err := r.run()
				if err != nil {
					t.Fatalf("%s %s: %v", nc.Name, r.algo, err)
				}
				if ans != q.Expected {
					t.Fatalf("%s %s answered %v on %+v, want %v", nc.Name, r.algo, ans, q.Query, q.Expected)
				}
				s := sums[r.algo]
				s.add(st)
				sums[r.algo] = s
			}
		}
		got[nc.Name] = sums
	}

	var diff strings.Builder
	for _, nc := range lubm.Constraints() {
		for _, algo := range []string{"INS", "UIS", "UIS*", "UISMulti"} {
			if gs, ws := got[nc.Name][algo], pinnedStats[nc.Name][algo]; gs != ws {
				fmt.Fprintf(&diff, "\n%s %s: got %+v, pinned %+v", nc.Name, algo, gs, ws)
			}
		}
	}
	if diff.Len() > 0 {
		t.Errorf("search work moved:%s", diff.String())
	}
}

// compileTable3 resolves a Table 3 constraint against g and evaluates
// V(S,G).
func compileTable3(t *testing.T, g *graph.Graph, nc lubm.NamedConstraint) (*pattern.Constraint, []graph.VertexID) {
	t.Helper()
	q, err := sparql.Parse(nc.SPARQL)
	if err != nil {
		t.Fatal(err)
	}
	cons, sat, err := q.Compile(g)
	if err != nil || !sat {
		t.Fatalf("%s: compile: sat=%v err=%v", nc.Name, sat, err)
	}
	m, err := pattern.NewMatcher(g, cons)
	if err != nil {
		t.Fatal(err)
	}
	return cons, m.MatchAll()
}
