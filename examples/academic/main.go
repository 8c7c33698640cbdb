// Academic runs the paper's Table 3 substructure constraints (S1–S5)
// against a generated LUBM-style university knowledge graph, asking
// reachability questions a registrar or auditor might pose — e.g. "is
// there an organisational path from this graduate student to that
// university that passes someone whose research interest is Research12?".
//
//	go run ./examples/academic
package main

import (
	"context"
	"fmt"
	"log"

	"lscr"
	"lscr/internal/lubm"
)

func main() {
	cfg := lubm.DefaultConfig(1)
	kg := lscr.FromGraph(lubm.Generate(cfg))
	fmt.Printf("LUBM-style KG: %d vertices, %d edges, %d labels\n",
		kg.NumVertices(), kg.NumEdges(), kg.NumLabels())

	eng := lscr.NewEngine(kg, lscr.Options{})
	if st, ok := eng.Index(); ok {
		fmt.Printf("local index: %d landmarks, %d entries, %d KB\n\n",
			st.Landmarks, st.Entries, st.SizeBytes/1024)
	}

	// How selective is each Table 3 constraint on this KG?
	for _, c := range lubm.Constraints() {
		vs, err := eng.Select(c.SPARQL)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s: |V(S,G)| = %d  (%s)\n", c.Name, len(vs), c.Blurb)
	}
	fmt.Println()

	// An auditor's question: can GraduateStudent4 of Department0 reach
	// University0 through membership/employment edges, passing someone
	// interested in Research12 (S1)?
	s1, _ := lubm.Constraint("S1")
	labels := []string{
		"ub:memberOf", "ub:advisor", "ub:worksFor",
		"ub:subOrganizationOf", "ub:hasMember", "ub:researchInterest",
	}
	ctx := context.Background()
	for _, algo := range []lscr.Algorithm{lscr.UIS, lscr.UISStar, lscr.INS} {
		res, err := eng.Query(ctx, lscr.Request{
			Source:     "GraduateStudent4.Department0.University0",
			Target:     "University0",
			Labels:     labels,
			Constraint: s1.SPARQL,
			Algorithm:  algo,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-5v audit path exists=%v (%v, %d vertices)\n",
			algo, res.Reachable, res.Elapsed, res.Stats.PassedVertices)
	}

	// The same question restricted to course-taking edges only has no
	// path to the university at all.
	res, err := eng.Query(ctx, lscr.Request{
		Source:     "GraduateStudent4.Department0.University0",
		Target:     "University0",
		Labels:     []string{"ub:takesCourse", "ub:researchInterest"},
		Constraint: s1.SPARQL,
		Algorithm:  lscr.INS,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("course-only path exists=%v\n", res.Reachable)
}
