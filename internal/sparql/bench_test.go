package sparql

import (
	"fmt"
	"sync"
	"testing"

	"lscr/internal/graph"
	"lscr/internal/lubm"
)

const benchQuery = `SELECT ?x WHERE {?x <rdf:type> <ub:UndergraduateStudent>. ?x <ub:takesCourse> ?y. ?y <rdf:type> <ub:Course>.}`

func BenchmarkParse(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Parse(benchQuery); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSelectS1(b *testing.B) {
	g := lubm.Generate(lubm.DefaultConfig(1))
	e := NewEngine(g)
	c, _ := lubm.Constraint("S1")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Select(c.SPARQL); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSelectS3(b *testing.B) {
	g := lubm.Generate(lubm.DefaultConfig(1))
	e := NewEngine(g)
	c, _ := lubm.Constraint("S3")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Select(c.SPARQL); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSelectS4EightPatterns(b *testing.B) {
	g := lubm.Generate(lubm.DefaultConfig(1))
	e := NewEngine(g)
	c, _ := lubm.Constraint("S4")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Select(c.SPARQL); err != nil {
			b.Fatal(err)
		}
	}
}

// lubm10 is the LUBM-10 graph (about 65k vertices), built once on first
// use so that benchmarks not asking for it do not pay for it.
var lubm10 = sync.OnceValue(func() *graph.Graph { return lubm.Generate(lubm.DefaultConfig(10)) })

// BenchmarkSelectShapes evaluates each constraint shape end to end
// (parse, compile, V(S,G)) on LUBM-10: the eight S3-shaped joins of the
// benchmark's embed-constraint workload, then Table 3's S1-S5. Run with
// -benchmem; the joins' bytes/op are dominated by the result set.
func BenchmarkSelectShapes(b *testing.B) {
	type shape struct{ name, text string }
	var shapes []shape
	for _, j := range [][3]string{
		{"UndergraduateStudent", "takesCourse", "Course"},
		{"GraduateStudent", "takesCourse", "GraduateCourse"},
		{"UndergraduateStudent", "memberOf", "Department"},
		{"GraduateStudent", "memberOf", "Department"},
		{"GraduateStudent", "advisor", "FullProfessor"},
		{"FullProfessor", "teacherOf", "Course"},
		{"AssociateProfessor", "teacherOf", "GraduateCourse"},
		{"AssistantProfessor", "worksFor", "Department"},
	} {
		shapes = append(shapes, shape{
			name: fmt.Sprintf("join-%s-%s-%s", j[0], j[1], j[2]),
			text: fmt.Sprintf("SELECT ?x WHERE {?x <rdf:type> <ub:%s>. ?x <ub:%s> ?y. ?y <rdf:type> <ub:%s>.}", j[0], j[1], j[2]),
		})
	}
	for _, nc := range lubm.Constraints() {
		shapes = append(shapes, shape{name: nc.Name, text: nc.SPARQL})
	}
	for _, sh := range shapes {
		b.Run(sh.name, func(b *testing.B) {
			e := NewEngine(lubm10())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				vs, err := e.Select(sh.text)
				if err != nil || len(vs) == 0 {
					b.Fatalf("%s: %d vertices, err %v", sh.name, len(vs), err)
				}
			}
		})
	}
}
