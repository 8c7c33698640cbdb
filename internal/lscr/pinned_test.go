package lscr_test

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
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
// repository reproduces, not a refactor. A one-constraint UISMulti is
// UIS, so its rows equal UIS's, SCck calls included.
var pinnedStats = map[string]map[string]workSums{
	"S1": {
		"INS":      {20212, 20225, 0},
		"UIS":      {20171, 23207, 4356},
		"UIS*":     {32315, 47352, 0},
		"UISMulti": {20171, 23207, 4356},
	},
	"S2": {
		"INS":      {17540, 22681, 0},
		"UIS":      {18889, 21491, 8521},
		"UIS*":     {29544, 42974, 0},
		"UISMulti": {18889, 21491, 8521},
	},
	"S3": {
		"INS":      {14268, 15232, 0},
		"UIS":      {16573, 17391, 4446},
		"UIS*":     {28879, 39685, 0},
		"UISMulti": {16573, 17391, 4446},
	},
	"S4": {
		"INS":      {9741, 10850, 0},
		"UIS":      {11213, 13015, 1978},
		"UIS*":     {27830, 39467, 0},
		"UISMulti": {11213, 13015, 1978},
	},
	"S5": {
		"INS":      {28489, 39592, 0},
		"UIS":      {27046, 43937, 26101},
		"UIS*":     {26575, 41981, 0},
		"UISMulti": {27046, 43937, 26101},
	},
}

// pinnedGroup is one Table 3 constraint with its V(S,G) and the true
// and false queries generated for it.
type pinnedGroup struct {
	name    string
	cons    *pattern.Constraint
	vs      []graph.VertexID
	queries []workload.Query
}

// pinnedWorkload builds the LUBM-1 graph, its local index and the query
// groups TestSearchStatsPinned and TestSearchEventsPinned share.
func pinnedWorkload(t *testing.T) (*graph.Graph, *lscr.LocalIndex, []pinnedGroup) {
	t.Helper()
	cfg := lubm.DefaultConfig(1)
	cfg.Seed = 1
	g := lubm.Generate(cfg)
	idx := lscr.NewLocalIndex(g, lscr.IndexParams{Seed: 1})
	var groups []pinnedGroup
	for i, nc := range lubm.Constraints() {
		cons, vs := compileTable3(t, g, nc)
		trueQ, falseQ, err := workload.Generate(g, cons, vs, workload.Config{Count: 6, Seed: int64(100 + i)})
		if err != nil {
			t.Fatalf("%s: %v", nc.Name, err)
		}
		groups = append(groups, pinnedGroup{nc.Name, cons, vs, append(trueQ, falseQ...)})
	}
	return g, idx, groups
}

// pinnedRun is one algorithm's run of a query.
type pinnedRun struct {
	algo string
	run  func() (bool, lscr.Stats, error)
}

// pinnedRuns lists the untraced runs of q under every pinned algorithm.
func pinnedRuns(g *graph.Graph, idx *lscr.LocalIndex, grp pinnedGroup, q workload.Query) []pinnedRun {
	return []pinnedRun{
		{"INS", func() (bool, lscr.Stats, error) { return lscr.INS(g, idx, q.Query, grp.vs) }},
		{"UIS", func() (bool, lscr.Stats, error) { return lscr.UIS(g, q.Query) }},
		{"UIS*", func() (bool, lscr.Stats, error) { return lscr.UISStar(g, q.Query, grp.vs) }},
		{"UISMulti", func() (bool, lscr.Stats, error) {
			return lscr.UISMulti(g, lscr.MultiQuery{
				Source: q.Source, Target: q.Target, Labels: q.Labels,
				Constraints: []*pattern.Constraint{grp.cons},
			})
		}},
	}
}

// TestSearchStatsPinned runs INS, UIS, UIS* and a one-constraint
// UISMulti over the paper's workload on LUBM-1 and pins the sums of
// their Stats, so a refactor of a search's priority structures or
// expansion order cannot change the work it does unnoticed.
func TestSearchStatsPinned(t *testing.T) {
	g, idx, groups := pinnedWorkload(t)
	got := map[string]map[string]workSums{}
	for _, grp := range groups {
		sums := map[string]workSums{}
		for _, q := range grp.queries {
			for _, r := range pinnedRuns(g, idx, grp, q) {
				ans, st, err := r.run()
				if err != nil {
					t.Fatalf("%s %s: %v", grp.name, r.algo, err)
				}
				if ans != q.Expected {
					t.Fatalf("%s %s answered %v on %+v, want %v", grp.name, r.algo, ans, q.Query, q.Expected)
				}
				s := sums[r.algo]
				s.add(st)
				sums[r.algo] = s
			}
		}
		got[grp.name] = sums
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

// pinnedEvents holds, per algorithm, an FNV-64 digest of every answer
// and Stats.Satisfying over TestSearchStatsPinned's queries. The
// "/trace" rows digest the traced runs' search trees too: every
// transition and LCS invocation, in order. Stats sums can survive a
// reordering of the search; these digests cannot.
var pinnedEvents = map[string]uint64{
	"INS":        0xb9d0e546a9f5f7ed,
	"UIS":        0x3f116c0f7c3980c9,
	"UIS*":       0xb074f4011e446dd9,
	"UISMulti":   0x3f116c0f7c3980c9,
	"INS/trace":  0x6641180c06195d4e,
	"UIS/trace":  0xd9758ea31a447060,
	"UIS*/trace": 0xa11d69f5d146a967,
}

// TestSearchEventsPinned pins which satisfying vertex each search
// settles on and the order of its trace events, so that moving the
// verification loop cannot reorder the search unnoticed.
func TestSearchEventsPinned(t *testing.T) {
	g, idx, groups := pinnedWorkload(t)
	digests := map[string]hash.Hash64{}
	sum := func(algo string, vals ...uint64) {
		h := digests[algo]
		if h == nil {
			h = fnv.New64a()
			digests[algo] = h
		}
		var b [8]byte
		for _, v := range vals {
			binary.LittleEndian.PutUint64(b[:], v)
			h.Write(b[:])
		}
	}
	answer := func(algo string, ans bool, st lscr.Stats) {
		a := uint64(0)
		if ans {
			a = 1
		}
		sum(algo, a, uint64(st.Satisfying))
	}
	for _, grp := range groups {
		for _, q := range grp.queries {
			for _, r := range pinnedRuns(g, idx, grp, q) {
				ans, st, err := r.run()
				if err != nil {
					t.Fatalf("%s %s: %v", grp.name, r.algo, err)
				}
				answer(r.algo, ans, st)
			}
			traced := []struct {
				algo string
				run  func(lscr.Tracer) (bool, lscr.Stats, error)
			}{
				{"INS/trace", func(tr lscr.Tracer) (bool, lscr.Stats, error) {
					return lscr.INSTraced(g, idx, q.Query, grp.vs, tr)
				}},
				{"UIS/trace", func(tr lscr.Tracer) (bool, lscr.Stats, error) {
					return lscr.UISTraced(g, q.Query, tr)
				}},
				{"UIS*/trace", func(tr lscr.Tracer) (bool, lscr.Stats, error) {
					return lscr.UISStarTraced(g, q.Query, grp.vs, tr)
				}},
			}
			for _, r := range traced {
				tree := &lscr.SearchTree{}
				ans, st, err := r.run(tree)
				if err != nil {
					t.Fatalf("%s %s: %v", grp.name, r.algo, err)
				}
				answer(r.algo, ans, st)
				for _, n := range tree.Nodes {
					vi := uint64(0)
					if n.ViaIndex {
						vi = 1
					}
					sum(r.algo, uint64(n.V), uint64(n.St), uint64(n.Parent), uint64(n.Label), vi)
				}
				for _, inv := range tree.Invocations {
					fs := uint64(0)
					if inv.FromSat {
						fs = 1
					}
					sum(r.algo, uint64(inv.SStar), uint64(inv.TStar), fs, uint64(inv.FirstNode))
				}
			}
		}
	}
	for _, algo := range []string{"INS", "UIS", "UIS*", "UISMulti", "INS/trace", "UIS/trace", "UIS*/trace"} {
		if got, want := digests[algo].Sum64(), pinnedEvents[algo]; got != want {
			t.Errorf("%s: event digest %#x, pinned %#x", algo, got, want)
		}
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
