package rdf

import (
	"bytes"
	"io"
	"strings"
	"testing"
	"testing/quick"
)

func TestParseLine(t *testing.T) {
	cases := []struct {
		in   string
		want Triple
		ok   bool
		err  bool
	}{
		{`<a> <p> <b> .`, Triple{"a", "p", "b"}, true, false},
		{`  <a> <p> <b> .  `, Triple{"a", "p", "b"}, true, false},
		{`<a> <p> "lit" .`, Triple{"a", "p", "lit"}, true, false},
		{``, Triple{}, false, false},
		{`   `, Triple{}, false, false},
		{`# comment`, Triple{}, false, false},
		{`<a> <p> <b>`, Triple{}, false, true},       // no dot
		{`<a> <p> .`, Triple{}, false, true},         // missing object
		{`<a> <p> <b> <c> .`, Triple{}, false, true}, // four terms
		{`<a <p> <b> .`, Triple{}, false, true},      // unterminated IRI
		{`<a> <p> "lit .`, Triple{}, false, true},    // unterminated literal
		{`a <p> <b> .`, Triple{}, false, true},       // bare term
	}
	for _, tc := range cases {
		got, ok, err := ParseLine(tc.in)
		if (err != nil) != tc.err {
			t.Errorf("ParseLine(%q) err = %v, want err=%v", tc.in, err, tc.err)
			continue
		}
		if ok != tc.ok || got != tc.want {
			t.Errorf("ParseLine(%q) = %+v, %v; want %+v, %v", tc.in, got, ok, tc.want, tc.ok)
		}
	}
}

func TestParseLiteralEscapes(t *testing.T) {
	cases := []struct {
		in   string
		want string
	}{
		{`<a> <p> "say \"hi\"" .`, `say "hi"`},
		{`<a> <p> "back\\slash" .`, `back\slash`},
		{`<a> <p> "line\nbreak" .`, "line\nbreak"},
		{`<a> <p> "tab\there" .`, "tab\there"},
		{`<a> <p> "cr\rhere" .`, "cr\rhere"},
		{`<a> <p> "unié" .`, "unié"},
		{`<a> <p> "astral\U0001F600" .`, "astral\U0001F600"},
	}
	for _, tc := range cases {
		got, ok, err := ParseLine(tc.in)
		if err != nil || !ok {
			t.Errorf("ParseLine(%q): ok=%v err=%v", tc.in, ok, err)
			continue
		}
		if got.Object != tc.want {
			t.Errorf("ParseLine(%q).Object = %q, want %q", tc.in, got.Object, tc.want)
		}
	}
	bad := []string{
		`<a> <p> "dangling\` + `" .`,
		`<a> <p> "bad\q" .`,
		`<a> <p> "trunc\u00" .`,
		`<a> <p> "bad\uZZZZ" .`,
	}
	for _, in := range bad {
		if _, _, err := ParseLine(in); err == nil {
			t.Errorf("ParseLine(%q) accepted", in)
		}
	}
}

func TestParseLiteralTagsAndDatatypes(t *testing.T) {
	cases := []struct {
		in   string
		want string
	}{
		{`<a> <p> "hello"@en .`, "hello"},
		{`<a> <p> "bonjour"@fr-CA .`, "bonjour"},
		{`<a> <p> "42"^^<xsd:integer> .`, "42"},
	}
	for _, tc := range cases {
		got, ok, err := ParseLine(tc.in)
		if err != nil || !ok {
			t.Errorf("ParseLine(%q): ok=%v err=%v", tc.in, ok, err)
			continue
		}
		if got.Object != tc.want {
			t.Errorf("ParseLine(%q).Object = %q, want %q", tc.in, got.Object, tc.want)
		}
	}
	bad := []string{
		`<a> <p> "x"@ .`,
		`<a> <p> "x"^^<unclosed .`,
	}
	for _, in := range bad {
		if _, _, err := ParseLine(in); err == nil {
			t.Errorf("ParseLine(%q) accepted", in)
		}
	}
}

func TestReaderLineNumbers(t *testing.T) {
	in := "<a> <p> <b> .\n# skip\nbroken\n"
	r := NewReader(strings.NewReader(in))
	if _, err := r.Next(); err != nil {
		t.Fatalf("first triple: %v", err)
	}
	_, err := r.Next()
	pe, ok := err.(*ParseError)
	if !ok {
		t.Fatalf("want *ParseError, got %v", err)
	}
	if pe.Line != 3 {
		t.Errorf("line = %d, want 3", pe.Line)
	}
	if !strings.Contains(pe.Error(), "line 3") {
		t.Errorf("error string %q lacks line number", pe.Error())
	}
}

func TestReaderEOF(t *testing.T) {
	r := NewReader(strings.NewReader("# only a comment\n"))
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("want io.EOF, got %v", err)
	}
}

func TestIsVocabulary(t *testing.T) {
	for _, p := range []string{TypePredicate, SubClassOfPredicate, DomainPredicate, RangePredicate} {
		if !IsVocabulary(p) {
			t.Errorf("IsVocabulary(%q) = false", p)
		}
	}
	if IsVocabulary("likes") {
		t.Error("IsVocabulary(likes) = true")
	}
}

func TestLoadBuildsSchemaAndEdges(t *testing.T) {
	// The Figure 2 example KG.
	src := `
<eg:Researcher> <rdf:type> <rdfs:Class> .
<eg:Researcher> <rdfs:subClassOf> <eg:Person> .
<eg:workWith> <rdfs:domain> <eg:Researcher> .
<eg:workWith> <rdfs:range> <eg:Researcher> .
<Taylor> <rdf:type> <eg:Researcher> .
<Walker> <rdf:type> <eg:Researcher> .
<Taylor> <eg:workWith> <Walker> .
<Walker> <eg:workWith> <Taylor> .
`
	g, err := Load(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 8 {
		t.Errorf("NumEdges = %d, want 8 (vocabulary triples are edges too)", g.NumEdges())
	}
	researcher := g.Vertex("eg:Researcher")
	typ, _ := g.LabelByName(TypePredicate)
	if got := g.InWith(researcher, typ); len(got) != 2 {
		t.Errorf("Researcher instances = %v", got)
	}
	sub, _ := g.LabelByName(SubClassOfPredicate)
	if sup := g.OutWith(researcher, sub); len(sup) != 1 || g.VertexName(sup[0].To) != "eg:Person" {
		t.Errorf("SuperClasses = %v", sup)
	}
	dom, _ := g.LabelByName(DomainPredicate)
	if !g.HasEdge(g.Vertex("eg:workWith"), dom, researcher) {
		t.Error("domain edge missing")
	}
	if cs := Classes(g); len(cs) != 2 || g.VertexName(cs[0]) != "eg:Person" || g.VertexName(cs[1]) != "eg:Researcher" {
		t.Errorf("Classes = %v", cs)
	}
	taylor := g.Vertex("Taylor")
	walker := g.Vertex("Walker")
	l, ok := g.LabelByName("eg:workWith")
	if !ok || !g.HasEdge(taylor, l, walker) || !g.HasEdge(walker, l, taylor) {
		t.Error("workWith edges missing")
	}
}

func TestLoadError(t *testing.T) {
	if _, err := Load(strings.NewReader("junk\n")); err == nil {
		t.Fatal("want error")
	}
}

func TestDumpRoundTrip(t *testing.T) {
	src := "<a> <p> <b> .\n<b> <q> <c> .\n<c> <rdf:type> <K> .\n"
	g, err := Load(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Dump(g, &buf); err != nil {
		t.Fatal(err)
	}
	g2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumVertices() != g.NumVertices() || g2.NumEdges() != g.NumEdges() {
		t.Fatalf("round trip mismatch: %v vs %v", g2, g)
	}
	typ, _ := g2.LabelByName(TypePredicate)
	if got := g2.InWith(g2.Vertex("K"), typ); len(got) != 1 {
		t.Errorf("class instance lost in round trip: %v", got)
	}
}

// Property: FormatTriple → ParseLine is the identity for IRI-safe names.
func TestCodecRoundTripProperty(t *testing.T) {
	sanitize := func(s string) string {
		var b strings.Builder
		b.WriteByte('n') // never empty
		for _, r := range s {
			if r > ' ' && r != '<' && r != '>' && r != '"' && r < 127 {
				b.WriteRune(r)
			}
		}
		return b.String()
	}
	prop := func(s, p, o string) bool {
		tr := Triple{sanitize(s), sanitize(p), sanitize(o)}
		got, ok, err := ParseLine(FormatTriple(tr))
		return err == nil && ok && got == tr
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
