package main

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"

	"lscr"
	"lscr/internal/graph"
	"lscr/internal/labelset"
	"lscr/internal/lubm"
)

// query is one pooled read: the request as a caller would send it, the
// oracle's answer, and the constraint class per-layer tables group by.
type query struct {
	req      lscr.Request
	class    string // "S1".."S5", or "conj" for two-constraint requests
	expected bool
}

// constraint is one substructure constraint the generator can draw.
type constraint struct {
	class string
	// text may hold '$' after each variable name, so that one semantic
	// constraint yields any number of distinct texts (see variant).
	text string
}

// variant returns the constraint's text with suffix appended to every
// variable name.
func (c constraint) variant(suffix string) string {
	return strings.ReplaceAll(c.text, "$", suffix)
}

// paperConstraints is Table 3's S1–S5, verbatim.
func paperConstraints() []constraint {
	var out []constraint
	for _, nc := range lubm.Constraints() {
		out = append(out, constraint{class: nc.Name, text: nc.SPARQL})
	}
	return out
}

// shapedConstraints is the catalog embed-constraint renames: S1–S5
// shapes with literals and classes that exist in every LUBM graph. The
// S3-shaped joins come first and are as many as all the others, so
// alternating between the two halves makes half the requests joins with
// |V(S,G)| in the thousands.
func shapedConstraints() (joins, others []constraint) {
	join := func(subject, pred, object string) constraint {
		return constraint{class: "S3", text: fmt.Sprintf(
			"SELECT ?x$ WHERE {?x$ <rdf:type> <ub:%s>. ?x$ <ub:%s> ?y$. ?y$ <rdf:type> <ub:%s>.}",
			subject, pred, object)}
	}
	joins = []constraint{
		join("UndergraduateStudent", "takesCourse", "Course"),
		join("GraduateStudent", "takesCourse", "GraduateCourse"),
		join("UndergraduateStudent", "memberOf", "Department"),
		join("GraduateStudent", "memberOf", "Department"),
		join("GraduateStudent", "advisor", "FullProfessor"),
		join("FullProfessor", "teacherOf", "Course"),
		join("AssociateProfessor", "teacherOf", "GraduateCourse"),
		join("AssistantProfessor", "worksFor", "Department"),
	}
	for i := 0; i < 3; i++ {
		others = append(others, constraint{class: "S1", text: fmt.Sprintf(
			"SELECT ?x$ WHERE { ?x$ <ub:researchInterest> 'Research%d'.}", 4*i)})
	}
	for i, class := range []string{"FullProfessor", "AssociateProfessor", "AssistantProfessor"} {
		others = append(others, constraint{class: "S2", text: fmt.Sprintf(
			"SELECT ?x$ WHERE { ?x$ <ub:researchInterest> 'Research%d'. ?x$ <rdf:type> <ub:%s>.}", 7+i, class)})
	}
	others = append(others,
		constraint{class: "S4", text: "SELECT ?x$ WHERE {?x$ <ub:name> 'GraduateStudent7'. " +
			"?x$ <ub:takesCourse> ?y1$. ?x$ <ub:advisor> ?y2$. ?x$ <ub:memberOf> ?y3$. " +
			"?z1$ <ub:takesCourse> ?y1$. ?y2$ <ub:teacherOf> ?z2$. " +
			"?y2$ <ub:worksFor> ?z3$. ?y3$ <ub:subOrganizationOf> ?z4$.}"},
		constraint{class: "S5", text: "SELECT ?x$ WHERE {?x$ <ub:emailAddress> 'FullProfessor1@Department1.University0.edu'. " +
			"?x$ <ub:undergraduateDegreeFrom> ?y1$. ?x$ <ub:mastersDegreeFrom> ?y2$. " +
			"?x$ <ub:doctoralDegreeFrom> ?y3$.}"},
	)
	return joins, others
}

// kind is one entry of a request mix: which algorithm a pooled request
// names and whether it carries two constraints.
type kind struct {
	algorithm lscr.Algorithm
	conj      bool
}

var (
	// searchMix is the embed-search request mix: 40 % default algorithm,
	// 20 % UIS, 20 % UIS*, 20 % two-constraint conjunctive.
	searchMix = []kind{{}, {}, {algorithm: lscr.UIS}, {algorithm: lscr.UISStar}, {conj: true}}
	// defaultMix names no algorithm: the engine's default answers.
	defaultMix = []kind{{}}
	// conjPairs are the S-classes conjunctive requests combine; S5 is a
	// singleton, so pairs with it would almost never be true.
	conjPairs = [][2]int{{0, 2}, {1, 2}, {2, 3}, {0, 3}}
)

// generator draws query pools from one rng over one graph.
type generator struct {
	rng      *rand.Rand
	g        *graph.Graph
	o        *oracle
	sources  []graph.VertexID // vertices with out-edges; literals cannot start a path
	labels   []labelset.Label // labels a query's L may hold
	minState int              // pools discard draws whose forward pass explored less
}

func newGenerator(rng *rand.Rand, g *graph.Graph, o *oracle, excluded []string) *generator {
	gen := &generator{rng: rng, g: g, o: o}
	for v := 0; v < g.NumVertices(); v++ {
		if g.OutDegree(graph.VertexID(v)) > 0 {
			gen.sources = append(gen.sources, graph.VertexID(v))
		}
	}
	skip := map[string]bool{}
	for _, name := range excluded {
		skip[name] = true
	}
	for l, name := range g.LabelNames() {
		if !skip[name] {
			gen.labels = append(gen.labels, labelset.Label(l))
		}
	}
	gen.minState = int(10 * math.Log2(float64(g.NumVertices())))
	return gen
}

// labelSet draws L as §6.1.1 does: |L| uniform within one of the thirds
// of [0.2t, 0.8t], t the number of drawable labels.
func (gen *generator) labelSet() (labelset.Set, []string) {
	t := len(gen.labels)
	lo := float64(t) * (0.2 + 0.2*float64(gen.rng.Intn(3)))
	size := int(lo) + gen.rng.Intn(int(0.2*float64(t))+1)
	size = max(1, min(size, t))
	var L labelset.Set
	names := make([]string, 0, size)
	for _, i := range gen.rng.Perm(t)[:size] {
		L = L.Add(gen.labels[i])
		names = append(names, gen.g.LabelName(gen.labels[i]))
	}
	return L, names
}

// pick samples one vertex uniformly among those keep accepts.
func (gen *generator) pick(keep func(v graph.VertexID) bool) (graph.VertexID, bool) {
	picked, n := graph.NoVertex, 0
	for v := range gen.o.seen {
		if keep(graph.VertexID(v)) {
			n++
			if gen.rng.Intn(n) == 0 {
				picked = graph.VertexID(v)
			}
		}
	}
	return picked, n > 0
}

// target picks t after a forward pass from s: among the vertices reached
// with every constraint satisfied when the answer is to be true, and
// otherwise among those reached without (falling back to any vertex not
// reached in full, which is every unreachable one). minHop/maxHop bound
// t's L-distance from s; maxHop 0 means no bound.
func (gen *generator) target(s graph.VertexID, k int, want bool, minHop, maxHop int32) (graph.VertexID, bool) {
	o := gen.o
	inRange := func(v graph.VertexID) bool {
		return v != s && (maxHop == 0 || o.depth[v] >= minHop && o.depth[v] <= maxHop)
	}
	if want {
		return gen.pick(func(v graph.VertexID) bool { return o.reached(v, k) && inRange(v) })
	}
	if t, ok := gen.pick(func(v graph.VertexID) bool { return o.seen[v] != 0 && !o.reached(v, k) && inRange(v) }); ok || maxHop != 0 {
		return t, ok
	}
	return gen.pick(func(v graph.VertexID) bool { return v != s && !o.reached(v, k) })
}

// request assembles the caller-side request for one drawn query.
func (gen *generator) request(s, t graph.VertexID, labels []string, texts []string, kd kind) lscr.Request {
	req := lscr.Request{
		Source:    gen.g.VertexName(s),
		Target:    gen.g.VertexName(t),
		Labels:    labels,
		Algorithm: kd.algorithm,
	}
	if len(texts) == 1 {
		req.Constraint = texts[0]
	} else {
		req.Constraints = texts
	}
	return req
}

// searchPool draws n queries over the paper's S1–S5 texts. The pool's
// composition is fixed, not drawn: slot i takes its request kind, its
// constraint class and its polarity from i alone, cycling through every
// combination, because query cost differs by orders of magnitude
// between combinations (INS over S3's thousands of satisfying vertices
// against UIS over S1) and a pool that drew them would measure its own
// luck. Only (s, L, t) are random. Draws whose forward pass explored
// fewer than 10·log2|V| states are discarded as trivial; a slot whose
// polarity no draw can give (true answers for the singleton S5, mostly)
// takes the other one. Every fourth true answer asks for a witness.
func (gen *generator) searchPool(n int, mix []kind) ([]query, error) {
	// A slot settles for the other polarity after settleDraws draws if
	// one turned up, and gives up after maxDraws.
	const settleDraws, maxDraws = 24, 2048
	cons := paperConstraints()
	sets := make([][]bool, len(cons))
	for i, c := range cons {
		set, err := gen.o.satisfying(c.text)
		if err != nil {
			return nil, err
		}
		sets[i] = set
	}
	pool := make([]query, 0, n)
	trues := 0
	for len(pool) < n {
		slot := len(pool)
		kd := mix[slot%len(mix)]
		combo := slot / len(mix)
		chosen, class := []int{combo % len(cons)}, cons[combo%len(cons)].class
		if kd.conj {
			chosen, class = conjPairs[combo%len(conjPairs)][:], "conj"
		}
		want := combo/len(cons)%2 == 0
		var qsets [][]bool
		var texts []string
		for _, i := range chosen {
			qsets = append(qsets, sets[i])
			texts = append(texts, cons[i].text)
		}
		var q *query
		for draw := 0; draw < maxDraws && (q == nil || q.expected != want && draw < settleDraws); draw++ {
			s := gen.sources[gen.rng.Intn(len(gen.sources))]
			L, labels := gen.labelSet()
			if gen.o.reach(s, L, qsets) < gen.minState {
				continue
			}
			if t, ok := gen.target(s, len(qsets), want, 0, 0); ok {
				q = &query{req: gen.request(s, t, labels, texts, kd), class: class, expected: want}
			} else if t, ok := gen.target(s, len(qsets), !want, 0, 0); ok && q == nil {
				q = &query{req: gen.request(s, t, labels, texts, kd), class: class, expected: !want}
			}
		}
		if q == nil {
			return nil, fmt.Errorf("pool: no query for slot %d (%s) in %d draws", slot, class, maxDraws)
		}
		if q.expected {
			q.req.WantWitness = trues%4 == 0
			trues++
		}
		pool = append(pool, *q)
	}
	return pool, nil
}

// constraintPool draws n requests that each carry a text no other
// request has: the shaped constraints renamed per request. One forward
// pass serves a group of eight requests from the same source, with
// targets two to four hops away so that the search stays short next to
// compiling and matching the constraint.
func (gen *generator) constraintPool(n int) ([]query, error) {
	const group = 8
	joins, others := shapedConstraints()
	pool := make([]query, 0, n)
	for attempts, groups := 0, 0; len(pool) < n; attempts++ {
		if attempts > 400*n {
			return nil, fmt.Errorf("pool: %d of %d queries after %d draws", len(pool), n, attempts)
		}
		c := joins[groups/2%len(joins)]
		if groups%2 == 1 {
			c = others[groups/2%len(others)]
		}
		set, err := gen.o.satisfying(c.variant(""))
		if err != nil {
			return nil, err
		}
		s := gen.sources[gen.rng.Intn(len(gen.sources))]
		L, labels := gen.labelSet()
		if gen.o.reach(s, L, [][]bool{set}) < gen.minState {
			continue
		}
		var drawn []query
		for i := 0; i < group; i++ {
			want := i%2 == 0
			t, ok := gen.target(s, 1, want, 2, 4)
			if !ok {
				want = !want
				if t, ok = gen.target(s, 1, want, 2, 4); !ok {
					break
				}
			}
			text := c.variant(strconv.Itoa(len(pool) + i))
			drawn = append(drawn, query{req: gen.request(s, t, labels, []string{text}, kind{}), class: c.class, expected: want})
		}
		if len(drawn) < group {
			continue
		}
		groups++
		pool = append(pool, drawn...)
	}
	return pool[:n], nil
}
