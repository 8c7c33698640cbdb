// Package sparql implements the miniature SPARQL engine the paper's UIS*
// and INS algorithms rely on to obtain V(S,G) (§4): a parser for
// single-projection SELECT queries over basic graph patterns, and an
// evaluator backed by the pattern matcher.
//
// Supported grammar (whitespace-insensitive, keywords case-insensitive):
//
//	SELECT ?x WHERE { triple . triple . ... }
//	triple  := term term term
//	term    := ?name | <iri> | 'literal' | "literal"
//
// Literals denote vertices named by their content (the graph substrate
// interns literals as vertices, mirroring the paper's treatment of e.g.
// 'Research12' in Table 3). The engine is exact and returns the full
// result set, which is exactly how the paper configures its engine
// (UNIMax = Max = +∞, Eδ = 1; §6 "Settings").
package sparql

import (
	"errors"
	"fmt"
	"strings"
	"unicode"

	"lscr/internal/graph"
	"lscr/internal/pattern"
)

// Term is a parsed query term.
type Term struct {
	IsVar bool
	Text  string // variable name (no '?') or entity/label name
}

// TriplePat is a parsed triple pattern. The predicate must be a constant.
type TriplePat struct {
	Subject   Term
	Predicate string
	Object    Term
}

// Query is the AST of a SELECT query. Vars holds every projected
// variable in order; Focus is the first one (the substructure-constraint
// machinery projects exactly one variable, the ?x of Definition 2.2,
// while SelectTuples handles multi-variable projections).
type Query struct {
	Focus    string   // first projected variable name, without '?'
	Vars     []string // all projected variables
	Patterns []TriplePat
}

// Parse errors.
var (
	ErrSyntax = errors.New("sparql: syntax error")
)

type parser struct {
	toks []token
	pos  int
}

type tokKind uint8

const (
	tokWord tokKind = iota // bare keyword (SELECT, WHERE)
	tokVar                 // ?name
	tokIRI                 // <...>
	tokLit                 // '...' or "..."
	tokLBrace
	tokRBrace
	tokDot
)

type token struct {
	kind tokKind
	text string
}

func lex(s string) ([]token, error) {
	var toks []token
	i := 0
	for i < len(s) {
		c := s[i]
		switch {
		case unicode.IsSpace(rune(c)):
			i++
		case c == '{':
			toks = append(toks, token{tokLBrace, "{"})
			i++
		case c == '}':
			toks = append(toks, token{tokRBrace, "}"})
			i++
		case c == '.':
			toks = append(toks, token{tokDot, "."})
			i++
		case c == '?':
			j := i + 1
			for j < len(s) && (isWordByte(s[j])) {
				j++
			}
			if j == i+1 {
				return nil, fmt.Errorf("%w: empty variable name at offset %d", ErrSyntax, i)
			}
			toks = append(toks, token{tokVar, s[i+1 : j]})
			i = j
		case c == '<':
			j := strings.IndexByte(s[i:], '>')
			if j < 0 {
				return nil, fmt.Errorf("%w: unterminated IRI at offset %d", ErrSyntax, i)
			}
			toks = append(toks, token{tokIRI, s[i+1 : i+j]})
			i += j + 1
		case c == '\'' || c == '"':
			j := strings.IndexByte(s[i+1:], c)
			if j < 0 {
				return nil, fmt.Errorf("%w: unterminated literal at offset %d", ErrSyntax, i)
			}
			toks = append(toks, token{tokLit, s[i+1 : i+1+j]})
			i += j + 2
		case isWordByte(c):
			j := i
			for j < len(s) && isWordByte(s[j]) {
				j++
			}
			toks = append(toks, token{tokWord, s[i:j]})
			i = j
		default:
			return nil, fmt.Errorf("%w: unexpected byte %q at offset %d", ErrSyntax, c, i)
		}
	}
	return toks, nil
}

func isWordByte(c byte) bool {
	return c == '_' || c == ':' || c == '-' ||
		'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9'
}

// Parse parses a SELECT query.
func Parse(s string) (*Query, error) {
	toks, err := lex(s)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	if !p.keyword("SELECT") {
		return nil, fmt.Errorf("%w: expected SELECT", ErrSyntax)
	}
	var vars []string
	for {
		v, ok := p.take(tokVar)
		if !ok {
			break
		}
		vars = append(vars, v.text)
	}
	if len(vars) == 0 {
		return nil, fmt.Errorf("%w: expected projected variable after SELECT", ErrSyntax)
	}
	if !p.keyword("WHERE") {
		return nil, fmt.Errorf("%w: expected WHERE", ErrSyntax)
	}
	if _, ok := p.take(tokLBrace); !ok {
		return nil, fmt.Errorf("%w: expected '{'", ErrSyntax)
	}
	q := &Query{Focus: vars[0], Vars: vars}
	for {
		if _, ok := p.take(tokRBrace); ok {
			break
		}
		subj, err := p.term()
		if err != nil {
			return nil, err
		}
		pred, ok := p.take(tokIRI)
		if !ok {
			return nil, fmt.Errorf("%w: predicate must be an IRI", ErrSyntax)
		}
		obj, err := p.term()
		if err != nil {
			return nil, err
		}
		q.Patterns = append(q.Patterns, TriplePat{subj, pred.text, obj})
		// A dot after each triple; optional before '}'.
		if _, ok := p.take(tokDot); !ok {
			if _, ok := p.take(tokRBrace); ok {
				break
			}
			return nil, fmt.Errorf("%w: expected '.' or '}' after triple", ErrSyntax)
		}
	}
	if p.pos != len(p.toks) {
		return nil, fmt.Errorf("%w: trailing tokens after '}'", ErrSyntax)
	}
	if len(q.Patterns) == 0 {
		return nil, fmt.Errorf("%w: empty pattern group", ErrSyntax)
	}
	return q, nil
}

func (p *parser) keyword(kw string) bool {
	if p.pos < len(p.toks) && p.toks[p.pos].kind == tokWord && strings.EqualFold(p.toks[p.pos].text, kw) {
		p.pos++
		return true
	}
	return false
}

func (p *parser) take(k tokKind) (token, bool) {
	if p.pos < len(p.toks) && p.toks[p.pos].kind == k {
		p.pos++
		return p.toks[p.pos-1], true
	}
	return token{}, false
}

func (p *parser) term() (Term, error) {
	if t, ok := p.take(tokVar); ok {
		return Term{IsVar: true, Text: t.text}, nil
	}
	if t, ok := p.take(tokIRI); ok {
		return Term{Text: t.text}, nil
	}
	if t, ok := p.take(tokLit); ok {
		return Term{Text: t.text}, nil
	}
	return Term{}, fmt.Errorf("%w: expected term", ErrSyntax)
}

// String renders the query back to parsable text.
func (q *Query) String() string {
	var b strings.Builder
	b.WriteString("SELECT")
	vars := q.Vars
	if len(vars) == 0 {
		vars = []string{q.Focus}
	}
	for _, v := range vars {
		fmt.Fprintf(&b, " ?%s", v)
	}
	b.WriteString(" WHERE {")
	for _, p := range q.Patterns {
		b.WriteByte(' ')
		b.WriteString(renderTerm(p.Subject))
		fmt.Fprintf(&b, " <%s> ", p.Predicate)
		b.WriteString(renderTerm(p.Object))
		b.WriteByte('.')
	}
	b.WriteString(" }")
	return b.String()
}

func renderTerm(t Term) string {
	if t.IsVar {
		return "?" + t.Text
	}
	return "<" + t.Text + ">"
}

// Compile resolves the query's entity and label names against g. The
// second result reports satisfiability: false means some constant vertex
// or predicate does not exist in g, so V(S,G) is empty by construction
// (no error — the query is well-formed, it just has no matches). The
// structure is validated before satisfiability is reported, so whether
// a query is rejected never depends on which names g holds.
func (q *Query) Compile(g *graph.Graph) (*pattern.Constraint, bool, error) {
	c := &pattern.Constraint{Focus: q.Focus}
	sat := true
	for _, tp := range q.Patterns {
		l, lok := g.LabelByName(tp.Predicate)
		s, sok := compileTerm(g, tp.Subject)
		o, ook := compileTerm(g, tp.Object)
		sat = sat && lok && sok && ook
		c.Patterns = append(c.Patterns, pattern.TriplePattern{Subject: s, Label: l, Object: o})
	}
	if err := c.Validate(); err != nil {
		return nil, false, err
	}
	if !sat {
		return nil, false, nil
	}
	return c, true, nil
}

// compileTerm resolves t against g; an unknown constant resolves to
// graph.NoVertex and false.
func compileTerm(g *graph.Graph, t Term) (pattern.Term, bool) {
	if t.IsVar {
		return pattern.V(t.Text), true
	}
	v := g.Vertex(t.Text)
	return pattern.C(v), v != graph.NoVertex
}

// Engine evaluates SELECT queries against one graph. It is safe for
// concurrent use.
type Engine struct {
	g *graph.Graph
}

// NewEngine returns an engine over g.
func NewEngine(g *graph.Graph) *Engine { return &Engine{g: g} }

// Select parses, compiles and evaluates the query, returning V(S,G) in
// ascending vertex order. Unknown entities or predicates yield an empty
// result; malformed queries yield an error.
func (e *Engine) Select(query string) ([]graph.VertexID, error) {
	q, err := Parse(query)
	if err != nil {
		return nil, err
	}
	return e.SelectQuery(q)
}

// SelectQuery evaluates a parsed query, projecting its first variable.
func (e *Engine) SelectQuery(q *Query) ([]graph.VertexID, error) {
	c, sat, err := q.Compile(e.g)
	if err != nil {
		return nil, err
	}
	if !sat {
		return nil, nil
	}
	m, err := pattern.NewMatcher(e.g, c)
	if err != nil {
		return nil, err
	}
	return m.MatchAll(), nil
}

// SelectTuples parses and evaluates a (possibly multi-variable) SELECT,
// returning the distinct projected tuples in the order found. Unknown
// entities yield an empty result, as in Select.
func (e *Engine) SelectTuples(query string) (vars []string, rows [][]graph.VertexID, err error) {
	q, err := Parse(query)
	if err != nil {
		return nil, nil, err
	}
	c, sat, err := q.Compile(e.g)
	if err != nil {
		return nil, nil, err
	}
	if !sat {
		return q.Vars, nil, nil
	}
	m, err := pattern.NewMatcher(e.g, c)
	if err != nil {
		return nil, nil, err
	}
	err = m.EnumerateBindings(q.Vars, func(tuple []graph.VertexID) bool {
		rows = append(rows, append([]graph.VertexID(nil), tuple...))
		return true
	})
	if err != nil {
		return nil, nil, err
	}
	return q.Vars, rows, nil
}
