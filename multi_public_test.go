package lscr

import (
	"context"
	"strings"
	"testing"
)

func TestReachAll(t *testing.T) {
	ctx := context.Background()
	kg, err := Load(strings.NewReader(`
<C> <apr> <X> .
<X> <apr> <A> .
<A> <apr> <P> .
<X> <married> <Amy> .
<A> <flag> <Offshore> .
<C> <apr> <Clean> .
<Clean> <apr> <P> .
`))
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(kg, Options{SkipIndex: true})
	req := Request{
		Source: "C", Target: "P",
		Labels: []string{"apr"},
		Constraints: []string{
			`SELECT ?x WHERE { ?x <married> <Amy>. }`,
			`SELECT ?x WHERE { ?x <flag> <Offshore>. }`,
		},
	}
	resp, err := eng.Query(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Reachable || resp.Algorithm != Conjunctive {
		t.Fatalf("C->X->A->P satisfies both conjuncts: %+v", resp)
	}
	// Adding an unsatisfiable conjunct flips the answer.
	req.Constraints = append(req.Constraints, `SELECT ?x WHERE { ?x <flag> <Nonexistent>. }`)
	resp, err = eng.Query(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Reachable {
		t.Fatal("unsatisfiable conjunct answered true")
	}
	// Restricting labels so the only path avoids the flagged account.
	req.Constraints = req.Constraints[:2]
	req.Labels = []string{"apr", "married"}
	resp, err = eng.Query(ctx, req)
	if err != nil || !resp.Reachable {
		t.Fatalf("resp=%+v err=%v", resp, err)
	}
}

func TestReachAllWithWitness(t *testing.T) {
	ctx := context.Background()
	kg, err := Load(strings.NewReader(`
<C> <apr> <X> .
<X> <apr> <A> .
<A> <apr> <P> .
<X> <married> <Amy> .
<A> <flag> <Offshore> .
`))
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(kg, Options{SkipIndex: true})
	req := Request{
		Source: "C", Target: "P",
		Labels: []string{"apr"},
		Constraints: []string{
			`SELECT ?x WHERE { ?x <married> <Amy>. }`,
			`SELECT ?x WHERE { ?x <flag> <Offshore>. }`,
		},
		WantWitness: true,
	}
	resp, err := eng.Query(ctx, req)
	w := resp.Witness
	if err != nil || !resp.Reachable || w == nil {
		t.Fatalf("resp=%+v err=%v", resp, err)
	}
	if len(w.SatisfiedBy) != 2 || w.SatisfiedBy[0] != "X" || w.SatisfiedBy[1] != "A" {
		t.Fatalf("SatisfiedBy = %v, want [X A]", w.SatisfiedBy)
	}
	if len(w.Hops) != 3 || w.Hops[0].From != "C" || w.Hops[2].To != "P" {
		t.Fatalf("Hops = %v", w.Hops)
	}
	// False: no witness.
	req.Constraints = append(req.Constraints, `SELECT ?x WHERE { ?x <flag> <Nothing>. }`)
	resp, err = eng.Query(ctx, req)
	if err != nil || resp.Reachable || resp.Witness != nil {
		t.Fatalf("unsat conjunct: resp=%+v err=%v", resp, err)
	}
	// Errors propagate.
	req.Source = "nobody"
	if _, err := eng.Query(ctx, req); err == nil {
		t.Fatal("unknown source accepted")
	}
}

func TestReachAllErrors(t *testing.T) {
	ctx := context.Background()
	kg := loadFincrime(t)
	eng := NewEngine(kg, Options{SkipIndex: true})
	c := `SELECT ?x WHERE { ?x <married-to> <Amy>. }`
	conj := func(source, target string, labels, constraints []string) error {
		_, err := eng.Query(ctx, Request{Source: source, Target: target, Labels: labels,
			Constraints: constraints, Algorithm: Conjunctive})
		return err
	}
	if err := conj("nope", "SuspectP", nil, []string{c}); err == nil {
		t.Error("unknown source accepted")
	}
	if err := conj("SuspectC", "nope", nil, []string{c}); err == nil {
		t.Error("unknown target accepted")
	}
	if err := conj("SuspectC", "SuspectP", []string{"bogus"}, []string{c}); err == nil {
		t.Error("unknown label accepted")
	}
	if err := conj("SuspectC", "SuspectP", nil, []string{"garbage"}); err == nil {
		t.Error("malformed constraint accepted")
	}
	if err := conj("SuspectC", "SuspectP", nil, nil); err == nil {
		t.Error("empty conjunction accepted")
	}
}
