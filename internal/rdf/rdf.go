// Package rdf implements the RDF substrate the paper assumes: a triple
// codec in an N-Triples-like line format, the RDFS vocabulary terms, and
// a loader that turns a triple stream into the graph substrate.
//
// The paper (§2): "KGs are stored by RDF triples and formatted by RDFS".
// Every triple, vocabulary included, becomes a labeled edge, so the RDFS
// store LS is the subgraph of vocabulary-labeled edges: Classes reads
// the class facts straight off the rdf:type and rdfs:subClassOf edges.
package rdf

import (
	"bufio"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"

	"lscr/internal/graph"
)

// RDF/RDFS vocabulary terms.
const (
	TypePredicate       = "rdf:type"
	SubClassOfPredicate = "rdfs:subClassOf"
	DomainPredicate     = "rdfs:domain"
	RangePredicate      = "rdfs:range"
	ClassTerm           = "rdfs:Class"
)

// IsVocabulary reports whether predicate is one of the RDFS vocabulary
// terms whose edges make up the RDFS store LS.
func IsVocabulary(predicate string) bool {
	switch predicate {
	case TypePredicate, SubClassOfPredicate, DomainPredicate, RangePredicate:
		return true
	}
	return false
}

// Triple is one parsed statement.
type Triple struct {
	Subject   string
	Predicate string
	Object    string
}

// ParseError reports a malformed line with its 1-based line number.
type ParseError struct {
	Line int
	Text string
	Msg  string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("rdf: line %d: %s: %q", e.Line, e.Msg, e.Text)
}

// ParseLine parses one statement of the form
//
//	<subject> <predicate> <object> .
//
// Terms are wrapped in angle brackets; literal objects may instead be
// wrapped in double quotes. Trailing "." is required. Empty lines and
// lines starting with '#' yield ok=false with no error.
func ParseLine(line string) (t Triple, ok bool, err error) {
	s := strings.TrimSpace(line)
	if s == "" || strings.HasPrefix(s, "#") {
		return Triple{}, false, nil
	}
	if !strings.HasSuffix(s, ".") {
		return Triple{}, false, fmt.Errorf("missing terminating dot")
	}
	s = strings.TrimSpace(strings.TrimSuffix(s, "."))

	subj, rest, err := readTerm(s)
	if err != nil {
		return Triple{}, false, fmt.Errorf("subject: %w", err)
	}
	pred, rest, err := readTerm(rest)
	if err != nil {
		return Triple{}, false, fmt.Errorf("predicate: %w", err)
	}
	obj, rest, err := readTerm(rest)
	if err != nil {
		return Triple{}, false, fmt.Errorf("object: %w", err)
	}
	if strings.TrimSpace(rest) != "" {
		return Triple{}, false, fmt.Errorf("trailing garbage %q", rest)
	}
	return Triple{subj, pred, obj}, true, nil
}

// readTerm consumes one <...> or "..." term from the front of s.
// Literals support the N-Triples escape sequences (\" \\ \n \t \r and
// \uXXXX/\UXXXXXXXX) and may carry a language tag (@en) or datatype
// (^^<iri>); tags and datatypes are parsed and dropped — the substrate
// interns literals by their lexical value.
func readTerm(s string) (term, rest string, err error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return "", "", fmt.Errorf("missing term")
	}
	switch s[0] {
	case '<':
		end := strings.IndexByte(s, '>')
		if end < 0 {
			return "", "", fmt.Errorf("unterminated IRI")
		}
		return s[1:end], s[end+1:], nil
	case '"':
		val, rest, err := readLiteral(s)
		if err != nil {
			return "", "", err
		}
		// Optional language tag or datatype.
		switch {
		case strings.HasPrefix(rest, "@"):
			i := 1
			for i < len(rest) && (rest[i] == '-' || isAlnum(rest[i])) {
				i++
			}
			if i == 1 {
				return "", "", fmt.Errorf("empty language tag")
			}
			rest = rest[i:]
		case strings.HasPrefix(rest, "^^<"):
			end := strings.IndexByte(rest, '>')
			if end < 0 {
				return "", "", fmt.Errorf("unterminated datatype IRI")
			}
			rest = rest[end+1:]
		}
		return val, rest, nil
	default:
		return "", "", fmt.Errorf("term must start with '<' or '\"', got %q", s[0])
	}
}

// readLiteral consumes a quoted literal with escapes; s starts at '"'.
func readLiteral(s string) (val, rest string, err error) {
	var b strings.Builder
	i := 1
	for i < len(s) {
		c := s[i]
		switch c {
		case '"':
			return b.String(), s[i+1:], nil
		case '\\':
			if i+1 >= len(s) {
				return "", "", fmt.Errorf("dangling escape")
			}
			i++
			switch s[i] {
			case '"':
				b.WriteByte('"')
			case '\\':
				b.WriteByte('\\')
			case 'n':
				b.WriteByte('\n')
			case 't':
				b.WriteByte('\t')
			case 'r':
				b.WriteByte('\r')
			case 'u', 'U':
				width := 4
				if s[i] == 'U' {
					width = 8
				}
				if i+width >= len(s) {
					return "", "", fmt.Errorf("truncated \\%c escape", s[i])
				}
				r, perr := strconv.ParseUint(s[i+1:i+1+width], 16, 32)
				if perr != nil {
					return "", "", fmt.Errorf("bad \\%c escape: %v", s[i], perr)
				}
				b.WriteRune(rune(r))
				i += width
			default:
				return "", "", fmt.Errorf("unknown escape \\%c", s[i])
			}
			i++
		default:
			b.WriteByte(c)
			i++
		}
	}
	return "", "", fmt.Errorf("unterminated literal")
}

func isAlnum(c byte) bool {
	return 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9'
}

// FormatTriple renders t in the line format understood by ParseLine.
// Objects containing spaces or starting with a quote are emitted as IRIs
// regardless; the codec is symmetric for names that avoid '<', '>' and '"'.
func FormatTriple(t Triple) string {
	return fmt.Sprintf("<%s> <%s> <%s> .", t.Subject, t.Predicate, t.Object)
}

// Reader parses a triple stream line by line.
type Reader struct {
	sc   *bufio.Scanner
	line int
}

// NewReader wraps r. Lines longer than 1 MiB are rejected by the scanner.
func NewReader(r io.Reader) *Reader {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	return &Reader{sc: sc}
}

// Next returns the next triple, io.EOF at end of stream, or a *ParseError.
func (r *Reader) Next() (Triple, error) {
	for r.sc.Scan() {
		r.line++
		t, ok, err := ParseLine(r.sc.Text())
		if err != nil {
			return Triple{}, &ParseError{Line: r.line, Text: r.sc.Text(), Msg: err.Error()}
		}
		if ok {
			return t, nil
		}
	}
	if err := r.sc.Err(); err != nil {
		return Triple{}, err
	}
	return Triple{}, io.EOF
}

// Writer serialises triples in the line format.
type Writer struct {
	w *bufio.Writer
}

// NewWriter wraps w.
func NewWriter(w io.Writer) *Writer { return &Writer{w: bufio.NewWriter(w)} }

// Write emits one triple.
func (w *Writer) Write(t Triple) error {
	_, err := w.w.WriteString(FormatTriple(t) + "\n")
	return err
}

// Flush flushes buffered output.
func (w *Writer) Flush() error { return w.w.Flush() }

// Load reads a triple stream and builds a Graph. Every triple, RDFS
// vocabulary included, becomes a labeled edge, matching the paper's view
// of a KG as an edge-labeled graph whose label set may include RDF
// vocabulary terms (§5.1.2 discusses edges labeled "rdf:type" etc.).
func Load(r io.Reader) (*graph.Graph, error) {
	b := graph.NewBuilder()
	rd := NewReader(r)
	for {
		t, err := rd.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		b.AddEdgeNames(t.Subject, t.Predicate, t.Object)
	}
	return b.Build(), nil
}

// Classes returns the class vertices of g, sorted by name. A vertex c is
// a class when it is the object of an rdf:type edge and is not
// rdfs:Class, when (c rdf:type rdfs:Class) is an edge, or when it is
// either end of an rdfs:subClassOf edge. The instances of c are the
// tails of g.InWith(c, rdf:type). One pass over every vertex's
// out-runs of the two labels finds them; it runs once per index build.
func Classes(g *graph.Graph) []graph.VertexID {
	typ, hasType := g.LabelByName(TypePredicate)
	sub, hasSub := g.LabelByName(SubClassOfPredicate)
	if !hasType && !hasSub {
		return nil
	}
	classTerm := g.Vertex(ClassTerm)
	isClass := make([]bool, g.NumVertices())
	for i := range isClass {
		v := graph.VertexID(i)
		if hasType {
			for _, e := range g.OutWith(v, typ) {
				if e.To == classTerm {
					isClass[v] = true
				} else {
					isClass[e.To] = true
				}
			}
		}
		if hasSub {
			for _, e := range g.OutWith(v, sub) {
				isClass[v], isClass[e.To] = true, true
			}
		}
	}
	var out []graph.VertexID
	for i, c := range isClass {
		if c {
			out = append(out, graph.VertexID(i))
		}
	}
	slices.SortFunc(out, func(a, b graph.VertexID) int {
		return strings.Compare(g.VertexName(a), g.VertexName(b))
	})
	return out
}

// Dump writes every edge of g, vocabulary triples included, as a triple
// stream.
func Dump(g *graph.Graph, w io.Writer) error {
	wr := NewWriter(w)
	var err error
	g.Triples(func(tr graph.Triple) bool {
		err = wr.Write(Triple{
			Subject:   g.VertexName(tr.Subject),
			Predicate: g.LabelName(tr.Label),
			Object:    g.VertexName(tr.Object),
		})
		return err == nil
	})
	if err != nil {
		return err
	}
	return wr.Flush()
}
