package lscr

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
)

// fincrimeKG is the paper's §1 scenario as a triple stream: an indirect
// transaction chain from SuspectC to SuspectP where middleman X is
// married to Amy.
const fincrimeKG = `
<SuspectC> <transfer2019-04> <MiddlemanX> .
<MiddlemanX> <transfer2019-04> <AccountA> .
<AccountA> <transfer2019-04> <SuspectP> .
<MiddlemanX> <married-to> <Amy> .
<SuspectC> <transfer2019-05> <SuspectP> .
<Decoy> <married-to> <Beth> .
<SuspectC> <friend-of> <Decoy> .
`

func loadFincrime(t *testing.T) *KG {
	t.Helper()
	kg, err := Load(strings.NewReader(fincrimeKG))
	if err != nil {
		t.Fatal(err)
	}
	return kg
}

func TestPublicAPIScenario(t *testing.T) {
	ctx := context.Background()
	kg := loadFincrime(t)
	eng := NewEngine(kg, Options{})
	if st, ok := eng.Index(); !ok || st.Landmarks == 0 {
		t.Fatalf("index stats: %+v ok=%v", st, ok)
	}
	q := Request{
		Source: "SuspectC", Target: "SuspectP",
		Labels:     []string{"transfer2019-04", "married-to"},
		Constraint: `SELECT ?x WHERE { ?x <married-to> <Amy>. }`,
	}
	for _, algo := range []Algorithm{INS, UIS, UISStar} {
		q.Algorithm = algo
		res, err := eng.Query(ctx, q)
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		if !res.Reachable {
			t.Errorf("%v: the April 2019 chain through MiddlemanX exists", algo)
		}
	}
	// Restricting to May transfers breaks the substructure condition:
	// the direct May edge passes no married-to-Amy vertex.
	q.Labels = []string{"transfer2019-05"}
	q.Algorithm = INS
	res, err := eng.Query(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reachable {
		t.Error("May-only transfer should not satisfy the constraint")
	}
}

func TestPublicAPIEmptyLabelsMeansUniverse(t *testing.T) {
	ctx := context.Background()
	kg := loadFincrime(t)
	eng := NewEngine(kg, Options{})
	res, err := eng.Query(ctx, Request{
		Source: "SuspectC", Target: "SuspectP",
		Constraint: `SELECT ?x WHERE { ?x <married-to> <Amy>. }`,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Reachable {
		t.Error("universe label constraint should find the chain")
	}
}

func TestPublicAPIErrors(t *testing.T) {
	ctx := context.Background()
	kg := loadFincrime(t)
	eng := NewEngine(kg, Options{})
	c := `SELECT ?x WHERE { ?x <married-to> <Amy>. }`
	if _, err := eng.Query(ctx, Request{Source: "nope", Target: "SuspectP", Constraint: c}); err == nil {
		t.Error("unknown source accepted")
	}
	if _, err := eng.Query(ctx, Request{Source: "SuspectC", Target: "nope", Constraint: c}); err == nil {
		t.Error("unknown target accepted")
	}
	if _, err := eng.Query(ctx, Request{Source: "SuspectC", Target: "SuspectP", Labels: []string{"bogus"}, Constraint: c}); err == nil {
		t.Error("unknown label accepted")
	}
	if _, err := eng.Query(ctx, Request{Source: "SuspectC", Target: "SuspectP", Constraint: "garbage"}); err == nil {
		t.Error("malformed constraint accepted")
	}
	if _, err := eng.Query(ctx, Request{Source: "SuspectC", Target: "SuspectP", Constraint: c, Algorithm: Algorithm(99)}); err == nil {
		t.Error("unknown algorithm accepted")
	}
	// Unknown entities in the constraint are a valid empty result.
	res, err := eng.Query(ctx, Request{Source: "SuspectC", Target: "SuspectP",
		Constraint: `SELECT ?x WHERE { ?x <married-to> <Nobody>. }`})
	if err != nil || res.Reachable {
		t.Errorf("unknown constraint entity: res=%+v err=%v", res, err)
	}
	// SkipIndex forbids INS but not the others.
	noIdx := NewEngine(kg, Options{SkipIndex: true})
	if _, ok := noIdx.Index(); ok {
		t.Error("Index() reported stats without an index")
	}
	if _, err := noIdx.Query(ctx, Request{Source: "SuspectC", Target: "SuspectP", Constraint: c}); err != ErrNoIndex {
		t.Errorf("INS without index: %v", err)
	}
	if _, err := noIdx.Query(ctx, Request{Source: "SuspectC", Target: "SuspectP", Constraint: c, Algorithm: UIS}); err != nil {
		t.Errorf("UIS without index: %v", err)
	}
}

// TestUnsatisfiableConstraintConsistency: the unsatisfiable-constraint
// early return reports SatisfyingVertices exactly as the normal path
// would — UIS evaluates lazily (-1), UIS*/INS report |V(S,G)| = 0. The
// early return used to answer 0 for UIS, diverging from every other UIS
// result.
func TestUnsatisfiableConstraintConsistency(t *testing.T) {
	ctx := context.Background()
	kg := loadFincrime(t)
	eng := NewEngine(kg, Options{})
	q := Request{Source: "SuspectC", Target: "SuspectP",
		Constraint: `SELECT ?x WHERE { ?x <married-to> <Nobody>. }`}
	want := map[Algorithm]int{UIS: -1, UISStar: 0, INS: 0}
	for algo, sv := range want {
		q.Algorithm = algo
		res, err := eng.Query(ctx, q)
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		if res.Reachable {
			t.Errorf("%v: unsatisfiable constraint answered true", algo)
		}
		if res.SatisfyingVertices != sv {
			t.Errorf("%v: SatisfyingVertices = %d, want %d", algo, res.SatisfyingVertices, sv)
		}
	}
	// The early return still validates the algorithm and index like the
	// normal path.
	q.Algorithm = Algorithm(99)
	if _, err := eng.Query(ctx, q); err == nil {
		t.Error("unknown algorithm accepted on the early-return path")
	}
	noIdx := NewEngine(kg, Options{SkipIndex: true})
	q.Algorithm = INS
	if _, err := noIdx.Query(ctx, q); err != ErrNoIndex {
		t.Errorf("INS without index on the early-return path: %v", err)
	}
}

// TestErrorSentinels: parse and validation failures are classifiable
// with errors.Is through the exported sentinels.
func TestErrorSentinels(t *testing.T) {
	ctx := context.Background()
	kg := loadFincrime(t)
	eng := NewEngine(kg, Options{})
	_, err := eng.Query(ctx, Request{Source: "SuspectC", Target: "SuspectP", Constraint: "SELECT garbage"})
	if !errors.Is(err, ErrConstraintSyntax) {
		t.Errorf("parse failure is not ErrConstraintSyntax: %v", err)
	}
	_, err = eng.Query(ctx, Request{Source: "SuspectC", Target: "SuspectP",
		Constraint: `SELECT ?x WHERE { ?y <married-to> <Amy>. }`})
	if !errors.Is(err, ErrInvalidConstraint) {
		t.Errorf("focus-unused failure is not ErrInvalidConstraint: %v", err)
	}
	_, err = eng.Query(ctx, Request{Source: "nope", Target: "SuspectP",
		Constraint: `SELECT ?x WHERE { ?x <married-to> <Amy>. }`})
	if !errors.Is(err, ErrUnknownVertex) {
		t.Errorf("unknown source is not ErrUnknownVertex: %v", err)
	}
	// Select and SelectAll classify their errors as Query does: parse
	// failures carry ErrConstraintSyntax, validation failures
	// ErrInvalidConstraint.
	if _, err := eng.Select("SELECT garbage"); !errors.Is(err, ErrConstraintSyntax) {
		t.Errorf("Select parse failure is not ErrConstraintSyntax: %v", err)
	}
	if _, err := eng.Select(`SELECT ?x WHERE { ?y <married-to> <Amy>. }`); !errors.Is(err, ErrInvalidConstraint) {
		t.Errorf("Select focus-unused failure is not ErrInvalidConstraint: %v", err)
	}
	if _, err := eng.SelectAll(`SELECT ?x WHERE { ?y <married-to> <Amy>. }`); !errors.Is(err, ErrInvalidConstraint) {
		t.Errorf("SelectAll focus-unused failure is not ErrInvalidConstraint: %v", err)
	}
}

// TestTooManyPatternsRejected: a constraint with more triple patterns
// than the matcher tracks (64) is an invalid constraint under every
// algorithm and in a concurrent batch, where it must fail its own slot
// and leave the other answered.
func TestTooManyPatternsRejected(t *testing.T) {
	ctx := context.Background()
	eng := NewEngine(loadFincrime(t), Options{})
	huge := "SELECT ?x WHERE {" + strings.Repeat(" ?x <married-to> <Amy>.", 65) + " }"
	for _, alg := range []Algorithm{INS, UIS, UISStar, Conjunctive} {
		_, err := eng.Query(ctx, Request{Source: "SuspectC", Target: "SuspectP", Constraint: huge, Algorithm: alg})
		if !errors.Is(err, ErrInvalidConstraint) {
			t.Errorf("%v: err = %v, want ErrInvalidConstraint", alg, err)
		}
	}
	out := eng.QueryBatch(ctx, []Request{
		{Source: "SuspectC", Target: "SuspectP", Constraint: huge},
		{Source: "SuspectC", Target: "SuspectP", Constraint: `SELECT ?x WHERE { ?x <married-to> <Amy>. }`},
	}, BatchOptions{Concurrency: 2})
	if !errors.Is(out[0].Err, ErrInvalidConstraint) {
		t.Errorf("batch item 0: err = %v, want ErrInvalidConstraint", out[0].Err)
	}
	if out[1].Err != nil || !out[1].Response.Reachable {
		t.Errorf("batch item 1: %+v, want reachable", out[1])
	}
	// 64 patterns is the limit, not past it.
	at := "SELECT ?x WHERE {" + strings.Repeat(" ?x <married-to> <Amy>.", 64) + " }"
	res, err := eng.Query(ctx, Request{Source: "SuspectC", Target: "SuspectP", Constraint: at})
	if err != nil || !res.Reachable {
		t.Errorf("64 patterns: %+v, %v; want reachable", res, err)
	}
}

// TestInvalidConstraintIndependentOfNames: a malformed constraint is
// rejected whether or not the graph knows the names it uses, under every
// algorithm, and interning those names changes nothing.
func TestInvalidConstraintIndependentOfNames(t *testing.T) {
	ctx := context.Background()
	eng := NewEngine(loadFincrime(t), Options{CompactAfter: -1})
	texts := []string{
		`SELECT ?z WHERE { ?x <no-such-label> ?y. }`,
		`SELECT ?z WHERE { ?x <married-to> <NoSuchVertex>. }`,
	}
	check := func(when string) {
		t.Helper()
		for _, text := range texts {
			for _, alg := range []Algorithm{INS, UIS, UISStar, Conjunctive} {
				_, err := eng.Query(ctx, Request{Source: "SuspectC", Target: "SuspectP", Constraint: text, Algorithm: alg})
				if !errors.Is(err, ErrInvalidConstraint) {
					t.Errorf("%s, %v, %s: err = %v, want ErrInvalidConstraint", when, alg, text, err)
				}
			}
			if _, err := eng.Select(text); !errors.Is(err, ErrInvalidConstraint) {
				t.Errorf("%s, Select %s: err = %v, want ErrInvalidConstraint", when, text, err)
			}
		}
	}
	check("unknown names")
	if _, err := eng.Apply(ctx, []Mutation{
		{Op: OpAddLabel, Label: "no-such-label"},
		{Op: OpAddVertex, Subject: "NoSuchVertex"},
	}); err != nil {
		t.Fatal(err)
	}
	check("after interning them")
}

// TestConjunctionRejectionIndependentOfNames: a conjunction with a
// malformed text, or with more than MaxConstraints texts, is rejected
// whether or not its first conjunct names entities the graph holds —
// an unsatisfiable conjunct does not answer false ahead of the
// rejection — and interning those names changes nothing.
func TestConjunctionRejectionIndependentOfNames(t *testing.T) {
	ctx := context.Background()
	eng := NewEngine(loadFincrime(t), Options{CompactAfter: -1})
	const amy = `SELECT ?x WHERE { ?x <married-to> <Amy>. }`
	firsts := []string{
		`SELECT ?x WHERE { ?x <married-to> <NoSuchVertex>. }`,
		`SELECT ?x WHERE { ?x <no-such-label> ?y. }`,
		amy,
	}
	cases := []struct {
		name string
		rest []string
		want error
	}{
		{"malformed second text", []string{"SELECT garbage"}, ErrConstraintSyntax},
		{"17 texts", slices.Repeat([]string{amy}, MaxConstraints), ErrTooManyConstraints},
	}
	check := func(when string) {
		t.Helper()
		for _, c := range cases {
			for _, alg := range []Algorithm{INS, Conjunctive} {
				for _, first := range firsts {
					_, err := eng.Query(ctx, Request{Source: "SuspectC", Target: "SuspectP",
						Constraints: append([]string{first}, c.rest...), Algorithm: alg})
					if !errors.Is(err, c.want) {
						t.Errorf("%s, %s, %v, first %s: err = %v, want %v", when, c.name, alg, first, err, c.want)
					}
				}
			}
		}
	}
	check("unknown names")
	if _, err := eng.Apply(ctx, []Mutation{
		{Op: OpAddLabel, Label: "no-such-label"},
		{Op: OpAddVertex, Subject: "NoSuchVertex"},
	}); err != nil {
		t.Fatal(err)
	}
	check("after interning them")
}

// TestRejectedConjunctionLeavesCacheAlone: a conjunction refused for
// its size compiles none of its texts, so a client cannot evict the
// warm constraint-cache entries with requests the engine refuses.
func TestRejectedConjunctionLeavesCacheAlone(t *testing.T) {
	ctx := context.Background()
	eng := NewEngine(loadFincrime(t), Options{})
	req := Request{Source: "SuspectC", Target: "SuspectP"}
	for _, text := range []string{`SELECT ?x WHERE { ?x <married-to> <Amy>. }`, `SELECT ?x WHERE { ?x <friend-of> ?y. }`} {
		req.Constraint = text
		if _, err := eng.Query(ctx, req); err != nil {
			t.Fatal(err)
		}
	}
	req.Constraint = ""
	before := eng.CacheStats()
	for _, n := range []int{500, MaxConstraints + 1} {
		req.Constraints = make([]string, n)
		for i := range req.Constraints {
			req.Constraints[i] = fmt.Sprintf(`SELECT ?x%d WHERE { ?x%d <married-to> <Amy>. }`, i, i)
		}
		if _, err := eng.Query(ctx, req); !errors.Is(err, ErrTooManyConstraints) {
			t.Fatalf("%d texts: err = %v, want ErrTooManyConstraints", n, err)
		}
		if st := eng.CacheStats(); st.Misses != before.Misses || st.Entries != before.Entries {
			t.Errorf("%d texts: cache %+v, was %+v", n, st, before)
		}
	}
}

// TestCacheStatsCounters: hits/misses/entries track Query traffic, and a
// negative ConstraintCacheSize disables the cache entirely.
func TestCacheStatsCounters(t *testing.T) {
	ctx := context.Background()
	kg := loadFincrime(t)
	eng := NewEngine(kg, Options{})
	if st := eng.CacheStats(); !st.Enabled || st.Capacity != DefaultConstraintCacheSize ||
		st.Hits != 0 || st.Misses != 0 || st.Entries != 0 {
		t.Fatalf("fresh cache stats = %+v", st)
	}
	q := Request{Source: "SuspectC", Target: "SuspectP",
		Constraint: `SELECT ?x WHERE { ?x <married-to> <Amy>. }`}
	for i := 0; i < 5; i++ {
		if _, err := eng.Query(ctx, q); err != nil {
			t.Fatal(err)
		}
	}
	if st := eng.CacheStats(); st.Misses != 1 || st.Hits != 4 || st.Entries != 1 {
		t.Fatalf("after 5 identical queries: %+v", st)
	}

	off := NewEngine(kg, Options{SkipIndex: true, ConstraintCacheSize: -1})
	q.Algorithm = UIS
	if _, err := off.Query(ctx, q); err != nil {
		t.Fatal(err)
	}
	if st := off.CacheStats(); st.Enabled || st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("disabled cache stats = %+v", st)
	}
}

func TestPublicSelect(t *testing.T) {
	kg := loadFincrime(t)
	eng := NewEngine(kg, Options{SkipIndex: true})
	names, err := eng.Select(`SELECT ?x WHERE { ?x <married-to> ?y. }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 {
		t.Fatalf("Select = %v", names)
	}
}

// TestSelectSharesQueryCache: Select compiles through Query's constraint
// cache, so a text one of them compiled is a hit for the other, and an
// unsatisfiable text selects nothing.
func TestSelectSharesQueryCache(t *testing.T) {
	eng := NewEngine(loadFincrime(t), Options{})
	const amy = `SELECT ?x WHERE { ?x <married-to> <Amy>. }`
	if _, err := eng.Query(context.Background(), Request{Source: "SuspectC", Target: "SuspectP", Constraint: amy}); err != nil {
		t.Fatal(err)
	}
	names, err := eng.Select(amy)
	if err != nil || !slices.Equal(names, []string{"MiddlemanX"}) {
		t.Fatalf("Select = %v, %v; want [MiddlemanX]", names, err)
	}
	if st := eng.CacheStats(); st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Errorf("after Query and Select of one text: %+v, want 1 hit, 1 miss, 1 entry", st)
	}
	names, err = eng.Select(`SELECT ?x WHERE { ?x <married-to> <Nobody>. }`)
	if err != nil || names == nil || len(names) != 0 {
		t.Errorf("unsatisfiable Select = %#v, %v; want an empty list", names, err)
	}
}

func TestPublicSelectAll(t *testing.T) {
	kg := loadFincrime(t)
	eng := NewEngine(kg, Options{SkipIndex: true})
	rows, err := eng.SelectAll(`SELECT ?x ?y WHERE { ?x <married-to> ?y. }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %v", rows)
	}
	found := false
	for _, r := range rows {
		if r["x"] == "MiddlemanX" && r["y"] == "Amy" {
			found = true
		}
	}
	if !found {
		t.Fatalf("missing MiddlemanX/Amy row: %v", rows)
	}
	if _, err := eng.SelectAll("garbage"); err == nil {
		t.Error("malformed query accepted")
	}
}

func TestDumpRoundTrip(t *testing.T) {
	kg := loadFincrime(t)
	var buf bytes.Buffer
	if err := kg.Dump(&buf); err != nil {
		t.Fatal(err)
	}
	kg2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if kg2.NumVertices() != kg.NumVertices() || kg2.NumEdges() != kg.NumEdges() || kg2.NumLabels() != kg.NumLabels() {
		t.Fatal("round trip changed the KG")
	}
}

func TestAlgorithmString(t *testing.T) {
	if INS.String() != "INS" || UIS.String() != "UIS" || UISStar.String() != "UIS*" {
		t.Error("Algorithm.String broken")
	}
	if Algorithm(42).String() == "" {
		t.Error("unknown algorithm renders empty")
	}
}

func TestLoadError(t *testing.T) {
	if _, err := Load(strings.NewReader("not a triple")); err == nil {
		t.Error("malformed input accepted")
	}
}
