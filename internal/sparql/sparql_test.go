package sparql

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"

	"lscr/internal/graph"
	"lscr/internal/pattern"
	"lscr/internal/testkg"
)

func exampleGraph() *graph.Graph {
	g, _ := testkg.RunningExample()
	return g
}

func TestParseBasics(t *testing.T) {
	q, err := Parse(`SELECT ?x WHERE { ?x <friendOf> <v3>. <v3> <likes> ?y. }`)
	if err != nil {
		t.Fatal(err)
	}
	if q.Focus != "x" || len(q.Patterns) != 2 {
		t.Fatalf("query = %+v", q)
	}
	if !q.Patterns[0].Subject.IsVar || q.Patterns[0].Subject.Text != "x" {
		t.Errorf("subject = %+v", q.Patterns[0].Subject)
	}
	if q.Patterns[0].Predicate != "friendOf" || q.Patterns[0].Object.Text != "v3" {
		t.Errorf("pattern = %+v", q.Patterns[0])
	}
}

func TestParseVariants(t *testing.T) {
	good := []string{
		`select ?x where { ?x <p> <a> . }`,                    // lowercase keywords
		`SELECT ?x WHERE { ?x <p> 'lit'. }`,                   // single-quoted literal
		`SELECT ?x WHERE { ?x <p> "lit". }`,                   // double-quoted literal
		`SELECT ?x WHERE {?x <p> <a>}`,                        // no trailing dot
		`SELECT ?x WHERE { ?x <p> <a>. ?x <q> ?y . }`,         // multiple patterns
		"SELECT ?x\nWHERE {\n ?x <p> <a> .\n}",                // newlines
		`SELECT ?x WHERE { ?x <ub:name> 'GraduateStudent4'.}`, // paper style, no space before '.'
	}
	for _, s := range good {
		if _, err := Parse(s); err != nil {
			t.Errorf("Parse(%q) failed: %v", s, err)
		}
	}
	bad := []string{
		``,
		`WHERE { ?x <p> <a>. }`,              // missing SELECT
		`SELECT x WHERE { ?x <p> <a>. }`,     // focus not a variable
		`SELECT ?x { ?x <p> <a>. }`,          // missing WHERE
		`SELECT ?x WHERE ?x <p> <a>.`,        // missing braces
		`SELECT ?x WHERE { }`,                // empty group
		`SELECT ?x WHERE { ?x ?p <a>. }`,     // variable predicate
		`SELECT ?x WHERE { ?x <p> <a>. } x`,  // trailing tokens
		`SELECT ?x WHERE { ?x <p <a>. }`,     // unterminated IRI
		`SELECT ?x WHERE { ?x <p> 'lit. }`,   // unterminated literal
		`SELECT ? WHERE { ?x <p> <a>. }`,     // empty var name
		`SELECT ?x WHERE { ?x <p> <a> <b>.}`, // 4-term triple
		`SELECT ?x WHERE { ?x <p> <a>, }`,    // bad separator byte
	}
	for _, s := range bad {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", s)
		}
	}
}

func TestSelectRunningExample(t *testing.T) {
	g := exampleGraph()
	e := NewEngine(g)
	// S0 of Figure 3(b): only v1 and v2 satisfy it (§3 of the paper).
	got, err := e.Select(`SELECT ?x WHERE { ?x <friendOf> <v3>. <v3> <likes> ?y. }`)
	if err != nil {
		t.Fatal(err)
	}
	want := []graph.VertexID{g.Vertex("v1"), g.Vertex("v2")}
	if len(got) != len(want) {
		t.Fatalf("V(S0,G0) = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("V(S0,G0) = %v, want %v", got, want)
		}
	}
}

func TestSelectUnknownNamesYieldEmpty(t *testing.T) {
	e := NewEngine(exampleGraph())
	for _, q := range []string{
		`SELECT ?x WHERE { ?x <nosuchlabel> <v3>. }`,
		`SELECT ?x WHERE { ?x <friendOf> <nosuchvertex>. }`,
	} {
		got, err := e.Select(q)
		if err != nil {
			t.Errorf("Select(%q) error: %v", q, err)
		}
		if len(got) != 0 {
			t.Errorf("Select(%q) = %v, want empty", q, got)
		}
	}
}

// TestSelectFocusUnused: an unused focus is a validation error whether
// or not the graph knows the query's names.
func TestSelectFocusUnused(t *testing.T) {
	e := NewEngine(exampleGraph())
	for _, q := range []string{
		`SELECT ?z WHERE { ?x <friendOf> <v3>. }`,
		`SELECT ?z WHERE { ?x <nosuchlabel> ?y. }`,
		`SELECT ?z WHERE { ?x <friendOf> <nosuchvertex>. }`,
		`SELECT ?z WHERE { <nosuchvertex> <nosuchlabel> ?x. }`,
	} {
		if _, err := e.Select(q); !errors.Is(err, pattern.ErrFocusUnused) {
			t.Errorf("Select(%q) error = %v, want ErrFocusUnused", q, err)
		}
	}
}

func TestSelectMalformed(t *testing.T) {
	e := NewEngine(exampleGraph())
	if _, err := e.Select(`garbage`); err == nil {
		t.Fatal("want parse error")
	}
}

func TestQueryStringRoundTrip(t *testing.T) {
	src := `SELECT ?x WHERE { ?x <friendOf> <v3>. <v3> <likes> ?y. }`
	q, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	q2, err := Parse(q.String())
	if err != nil {
		t.Fatalf("re-parse of %q: %v", q.String(), err)
	}
	if q2.String() != q.String() {
		t.Fatalf("round trip: %q != %q", q2.String(), q.String())
	}
}

// Property: any query assembled from sanitized identifiers parses, and its
// String() re-parses to an identical AST.
func TestParsePrintParseProperty(t *testing.T) {
	sanitize := func(s string) string {
		var b strings.Builder
		b.WriteByte('n')
		for _, r := range s {
			if r < 128 && (r == ':' || r == '_' || r == '-' ||
				'a' <= r && r <= 'z' || 'A' <= r && r <= 'Z' || '0' <= r && r <= '9') {
				b.WriteRune(r)
			}
		}
		return b.String()
	}
	prop := func(focus, p1, s1, o1 string, sVar, oVar bool) bool {
		f := sanitize(focus)
		q := &Query{Focus: f}
		st := Term{IsVar: sVar, Text: sanitize(s1)}
		ot := Term{IsVar: oVar, Text: sanitize(o1)}
		if sVar {
			st.Text = f // keep focus used
		}
		q.Patterns = append(q.Patterns, TriplePat{st, sanitize(p1), ot})
		q2, err := Parse(q.String())
		if err != nil {
			return false
		}
		return q2.String() == q.String()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSelectTuplesMultiVar(t *testing.T) {
	g := exampleGraph()
	e := NewEngine(g)
	vars, rows, err := e.SelectTuples(`SELECT ?x ?y WHERE { ?x <friendOf> ?y. }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(vars) != 2 || vars[0] != "x" || vars[1] != "y" {
		t.Fatalf("vars = %v", vars)
	}
	// friendOf edges: v0->v1, v1->v3, v2->v3.
	if len(rows) != 3 {
		t.Fatalf("rows = %v", rows)
	}
	seen := map[[2]string]bool{}
	for _, r := range rows {
		seen[[2]string{g.VertexName(r[0]), g.VertexName(r[1])}] = true
	}
	for _, want := range [][2]string{{"v0", "v1"}, {"v1", "v3"}, {"v2", "v3"}} {
		if !seen[want] {
			t.Errorf("missing tuple %v in %v", want, rows)
		}
	}
}

func TestSelectTuplesDistinct(t *testing.T) {
	g := exampleGraph()
	e := NewEngine(g)
	// ?x projected alone over a two-variable pattern: duplicates from
	// different ?y bindings must collapse.
	vars, rows, err := e.SelectTuples(`SELECT ?x WHERE { ?x <friendOf> ?y. }`)
	if err != nil || len(vars) != 1 {
		t.Fatal(err)
	}
	if len(rows) != 3 { // v0, v1, v2
		t.Fatalf("rows = %v", rows)
	}
}

// Property: SelectTuples projected on the focus variable equals Select.
func TestSelectTuplesAgreesWithSelect(t *testing.T) {
	g := exampleGraph()
	e := NewEngine(g)
	for _, q := range []string{
		`SELECT ?x WHERE { ?x <friendOf> <v3>. <v3> <likes> ?y. }`,
		`SELECT ?x WHERE { ?x <likes> ?y. }`,
		`SELECT ?x WHERE { ?x <friendOf> ?y. ?y <likes> ?z. }`,
	} {
		want, err := e.Select(q)
		if err != nil {
			t.Fatal(err)
		}
		_, rows, err := e.SelectTuples(q)
		if err != nil {
			t.Fatal(err)
		}
		got := map[graph.VertexID]bool{}
		for _, r := range rows {
			got[r[0]] = true
		}
		if len(got) != len(want) {
			t.Fatalf("%s: tuples %v vs select %v", q, rows, want)
		}
		for _, v := range want {
			if !got[v] {
				t.Fatalf("%s: missing %v", q, v)
			}
		}
	}
}

func TestSelectTuplesErrors(t *testing.T) {
	e := NewEngine(exampleGraph())
	if _, _, err := e.SelectTuples(`garbage`); err == nil {
		t.Error("parse error not surfaced")
	}
	// Unknown entity: empty result, no error.
	vars, rows, err := e.SelectTuples(`SELECT ?x ?y WHERE { ?x <friendOf> <nosuch>. ?x <likes> ?y. }`)
	if err != nil || len(rows) != 0 || len(vars) != 2 {
		t.Errorf("vars=%v rows=%v err=%v", vars, rows, err)
	}
}

func TestParseMultiVarRoundTrip(t *testing.T) {
	q, err := Parse(`SELECT ?a ?b WHERE { ?a <p> ?b. }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Vars) != 2 || q.Focus != "a" {
		t.Fatalf("query = %+v", q)
	}
	q2, err := Parse(q.String())
	if err != nil || q2.String() != q.String() {
		t.Fatalf("round trip: %q vs %q (%v)", q2.String(), q.String(), err)
	}
}

func TestTable3StyleQueries(t *testing.T) {
	// The S1/S2 shapes of Table 3 parse (semantics tested in the lubm
	// package where the dataset exists).
	for _, q := range []string{
		`SELECT ?x WHERE { ?x <ub:researchInterest> 'Research12'.}`,
		`SELECT ?x WHERE { ?x <ub:researchInterest> 'Research12'. ?x <rdf:type> <ub:AssociateProfessor>.}`,
		`SELECT ?x WHERE {?x <rdf:type> <ub:UndergraduateStudent>. ?x <ub:takesCourse> ?y. ?y <rdf:type> <ub:Course>.}`,
	} {
		if _, err := Parse(q); err != nil {
			t.Errorf("Parse(%q): %v", q, err)
		}
	}
}
