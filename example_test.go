package lscr_test

import (
	"context"
	"fmt"
	"log"
	"strings"

	"lscr"
)

// The paper's §1 scenario: an indirect April-2019 transaction from C to P
// through a middleman married to Amy.
const exampleKG = `
<SuspectC> <transfer2019-04> <MiddlemanX> .
<MiddlemanX> <transfer2019-04> <SuspectP> .
<MiddlemanX> <married-to> <Amy> .
<SuspectC> <transfer2019-05> <SuspectP> .
`

func ExampleEngine_Query() {
	kg, err := lscr.Load(strings.NewReader(exampleKG))
	if err != nil {
		log.Fatal(err)
	}
	eng := lscr.NewEngine(kg, lscr.Options{})
	resp, err := eng.Query(context.Background(), lscr.Request{
		Source: "SuspectC", Target: "SuspectP",
		Labels:     []string{"transfer2019-04", "married-to"},
		Constraint: `SELECT ?x WHERE { ?x <married-to> <Amy>. }`,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(resp.Reachable)
	// Output: true
}

func ExampleEngine_Query_witness() {
	kg, err := lscr.Load(strings.NewReader(exampleKG))
	if err != nil {
		log.Fatal(err)
	}
	eng := lscr.NewEngine(kg, lscr.Options{})
	resp, err := eng.Query(context.Background(), lscr.Request{
		Source: "SuspectC", Target: "SuspectP",
		Labels:      []string{"transfer2019-04", "married-to"},
		Constraint:  `SELECT ?x WHERE { ?x <married-to> <Amy>. }`,
		WantWitness: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(resp.Witness)
	fmt.Println("middleman:", resp.Witness.SatisfiedBy[0])
	// Output:
	// SuspectC -[transfer2019-04]-> MiddlemanX -[transfer2019-04]-> SuspectP
	// middleman: MiddlemanX
}

func ExampleEngine_Select() {
	kg, err := lscr.Load(strings.NewReader(exampleKG))
	if err != nil {
		log.Fatal(err)
	}
	eng := lscr.NewEngine(kg, lscr.Options{SkipIndex: true})
	names, err := eng.Select(`SELECT ?x WHERE { ?x <married-to> <Amy>. }`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(names)
	// Output: [MiddlemanX]
}

func ExampleEngine_Query_conjunctive() {
	kg, err := lscr.Load(strings.NewReader(exampleKG))
	if err != nil {
		log.Fatal(err)
	}
	eng := lscr.NewEngine(kg, lscr.Options{SkipIndex: true})
	resp, err := eng.Query(context.Background(), lscr.Request{
		Source: "SuspectC", Target: "SuspectP",
		Labels: []string{"transfer2019-04", "married-to"},
		Constraints: []string{
			`SELECT ?x WHERE { ?x <married-to> <Amy>. }`,
			`SELECT ?x WHERE { ?x <transfer2019-04> <SuspectP>. }`,
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(resp.Reachable)
	// Output: true
}
