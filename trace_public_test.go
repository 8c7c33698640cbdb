package lscr

import (
	"context"
	"strings"
	"testing"
)

func TestReachTraced(t *testing.T) {
	ctx := context.Background()
	kg := loadFincrime(t)
	eng := NewEngine(kg, Options{})
	req := Request{
		Source: "SuspectC", Target: "SuspectP",
		Labels:     []string{"transfer2019-04", "married-to"},
		Constraint: `SELECT ?x WHERE { ?x <married-to> <Amy>. }`,
		WantTrace:  true,
	}
	for _, algo := range []Algorithm{UIS, UISStar, INS} {
		req.Algorithm = algo
		resp, err := eng.Query(ctx, req)
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		if !resp.Reachable {
			t.Fatalf("%v: unreachable", algo)
		}
		out := resp.TraceDOT
		if !strings.Contains(out, "digraph") || !strings.Contains(out, "SuspectC_F") {
			t.Errorf("%v: DOT output malformed:\n%s", algo, out)
		}
	}
	// Errors propagate.
	req.Algorithm = INS
	req.Source = "nobody"
	if _, err := eng.Query(ctx, req); err == nil {
		t.Fatal("unknown source accepted")
	}
	req.Source = "SuspectC"
	req.Constraint = "garbage"
	if _, err := eng.Query(ctx, req); err == nil {
		t.Fatal("malformed constraint accepted")
	}
	// An unsatisfiable constraint answers false without searching, so
	// there is no tree to render.
	req.Constraint = `SELECT ?x WHERE { ?x <married-to> <Nobody>. }`
	resp, err := eng.Query(ctx, req)
	if err != nil || resp.Reachable || resp.TraceDOT != "" {
		t.Fatalf("unsatisfiable constraint: %+v %v", resp, err)
	}
	noIdx := NewEngine(kg, Options{SkipIndex: true})
	req.Constraint = `SELECT ?x WHERE { ?x <married-to> <Amy>. }`
	if _, err := noIdx.Query(ctx, req); err != ErrNoIndex {
		t.Fatalf("INS without index: %v", err)
	}
	req.Algorithm = Algorithm(77)
	if _, err := eng.Query(ctx, req); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}
