// Fincrime reproduces the paper's §1 motivating scenario: verifying an
// economic-criminal relationship between Suspect C and Suspect P, given
// the tip "an indirect transaction from C to P occurred in April 2019, in
// which one of the middlemen and Amy are married".
//
// The KG models people as vertices; edges are either account transfers
// labelled with a coarse timestamp ("transfer2019-04") or social
// relationships ("married-to", "friend-of", "parent-of"). The LSCR query
// restricts paths to April-2019 transfers plus social edges, and demands
// a path vertex married to Amy.
//
//	go run ./examples/fincrime
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"strings"

	"lscr"
)

func main() {
	kg, err := lscr.Load(strings.NewReader(buildKG()))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("financial KG: %d people/accounts, %d edges\n", kg.NumVertices(), kg.NumEdges())

	eng := lscr.NewEngine(kg, lscr.Options{})

	// Who is married to Amy? (the substructure constraint, standalone)
	spouses, err := eng.Select(`SELECT ?x WHERE { ?x <married-to> <Amy>. }`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("married to Amy: %v\n", spouses)

	investigate := func(label string) {
		res, err := eng.Query(context.Background(), lscr.Request{
			Source:      "SuspectC",
			Target:      "SuspectP",
			Labels:      []string{label, "married-to"},
			Constraint:  `SELECT ?x WHERE { ?x <married-to> <Amy>. }`,
			Algorithm:   lscr.INS,
			WantWitness: true,
		})
		if err != nil {
			log.Fatal(err)
		}
		if !res.Reachable {
			fmt.Printf("window %s: no evidence (checked in %v, %d vertices touched)\n",
				label, res.Elapsed, res.Stats.PassedVertices)
			return
		}
		fmt.Printf("window %s: SUSPICIOUS (checked in %v)\n", label, res.Elapsed)
		fmt.Printf("  evidence chain: %s\n", res.Witness)
		fmt.Printf("  middleman married to Amy: %s\n", res.Witness.SatisfiedBy[0])
	}
	// April 2019: the tip's window — the chain C -> X -> A -> P exists
	// and middleman X is married to Amy.
	investigate("transfer2019-04")
	// March 2019: transfers exist but none pass Amy's spouse.
	investigate("transfer2019-03")
}

// buildKG synthesises a small money-flow network around the hand-crafted
// evidence chain.
func buildKG() string {
	var b strings.Builder
	add := func(s, p, o string) { fmt.Fprintf(&b, "<%s> <%s> <%s> .\n", s, p, o) }

	// The evidence chain from the paper's Figure 1.
	add("SuspectC", "transfer2019-04", "MiddlemanX")
	add("MiddlemanX", "transfer2019-04", "AccountA")
	add("AccountA", "transfer2019-04", "SuspectP")
	add("MiddlemanX", "married-to", "Amy")
	add("Amy", "married-to", "MiddlemanX")

	// A March chain that does not pass Amy's spouse.
	add("SuspectC", "transfer2019-03", "CleanBroker")
	add("CleanBroker", "transfer2019-03", "SuspectP")

	// Background noise: a few hundred random transfers and relations.
	rng := rand.New(rand.NewSource(7))
	months := []string{"transfer2019-03", "transfer2019-04", "transfer2019-05"}
	rels := []string{"friend-of", "parent-of"}
	person := func(i int) string { return fmt.Sprintf("P%03d", i) }
	for i := 0; i < 120; i++ {
		add(person(rng.Intn(80)), months[rng.Intn(len(months))], person(rng.Intn(80)))
	}
	for i := 0; i < 40; i++ {
		add(person(rng.Intn(80)), rels[rng.Intn(len(rels))], person(rng.Intn(80)))
	}
	// A couple among the noise (not Amy's).
	add("P001", "married-to", "P002")
	add("P002", "married-to", "P001")
	return b.String()
}
