package lscr

import (
	"context"
	"strings"
	"testing"
)

func TestReachWithWitness(t *testing.T) {
	ctx := context.Background()
	kg := loadFincrime(t)
	eng := NewEngine(kg, Options{})
	req := Request{
		Source: "SuspectC", Target: "SuspectP",
		Labels:      []string{"transfer2019-04", "married-to"},
		Constraint:  `SELECT ?x WHERE { ?x <married-to> <Amy>. }`,
		WantWitness: true,
	}
	for _, algo := range []Algorithm{INS, UIS, UISStar} {
		req.Algorithm = algo
		resp, err := eng.Query(ctx, req)
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		w := resp.Witness
		if !resp.Reachable || w == nil {
			t.Fatalf("%v: no witness for reachable query", algo)
		}
		if len(w.SatisfiedBy) != 1 || w.SatisfiedBy[0] != "MiddlemanX" {
			t.Errorf("%v: satisfied by %q, want [MiddlemanX]", algo, w.SatisfiedBy)
		}
		s := w.String()
		if !strings.HasPrefix(s, "SuspectC ") || !strings.HasSuffix(s, " SuspectP") {
			t.Errorf("%v: path = %q", algo, s)
		}
	}
	// False answers carry no witness.
	req.Labels = []string{"transfer2019-05"}
	req.Algorithm = INS
	resp, err := eng.Query(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Reachable || resp.Witness != nil {
		t.Fatal("witness fabricated for false answer")
	}
	// Errors propagate.
	req.Source = "nobody"
	if _, err := eng.Query(ctx, req); err == nil {
		t.Fatal("unknown source accepted")
	}
}

func TestWitnessZeroLengthPathString(t *testing.T) {
	kg := loadFincrime(t)
	eng := NewEngine(kg, Options{})
	// MiddlemanX -> MiddlemanX with MiddlemanX satisfying: empty path.
	resp, err := eng.Query(context.Background(), Request{
		Source: "MiddlemanX", Target: "MiddlemanX",
		Constraint:  `SELECT ?x WHERE { ?x <married-to> <Amy>. }`,
		WantWitness: true,
	})
	if err != nil || !resp.Reachable || resp.Witness == nil {
		t.Fatalf("resp=%+v err=%v", resp, err)
	}
	if w := resp.Witness; len(w.Hops) != 0 || w.String() != "MiddlemanX" {
		t.Fatalf("path = %+v (%q)", w.Hops, w.String())
	}
}

// TestSaveLoadIndex: an index sealed into a store and reloaded by Open
// reports the same stats and gives the same answers as the engine that
// built it, and the caller's Options (here a disabled constraint cache)
// apply on the load path.
func TestSaveLoadIndex(t *testing.T) {
	kg := loadFincrime(t)
	dir := t.TempDir()
	eng, err := Create(dir, kg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	loaded, err := Open(dir, Options{ConstraintCacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()
	if loaded.CacheStats().Enabled {
		t.Fatal("ConstraintCacheSize not applied on the load path")
	}
	req := Request{
		Source: "SuspectC", Target: "SuspectP",
		Labels:     []string{"transfer2019-04", "married-to"},
		Constraint: `SELECT ?x WHERE { ?x <married-to> <Amy>. }`,
	}
	a, err := eng.Query(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	b, err := loaded.Query(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if a.Reachable != b.Reachable {
		t.Fatal("loaded index answers differently")
	}
	st1, _ := eng.Index()
	st2, ok := loaded.Index()
	if !ok || st1.Entries != st2.Entries || st1.Landmarks != st2.Landmarks {
		t.Fatalf("index stats differ: %+v vs %+v", st1, st2)
	}
}
