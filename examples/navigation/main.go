// Navigation models the paper's traffic-navigation use case (§1 cites
// finding shortest paths with user requirements [8]): a road network
// whose edges are labelled by road type, with LSCR queries like "can I
// drive from Home to the Airport using only highways and arterials, with
// a fuel station that takes my charge card somewhere along the way?".
//
//	go run ./examples/navigation
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
	kg, err := lscr.Load(strings.NewReader(buildRoadNetwork()))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("road network: %d junctions/POIs, %d segments\n", kg.NumVertices(), kg.NumEdges())
	eng := lscr.NewEngine(kg, lscr.Options{})

	drive := func(desc string, labels []string, constraint string) {
		res, err := eng.Query(context.Background(), lscr.Request{
			Source: "Home", Target: "Airport",
			Labels:      labels,
			Constraint:  constraint,
			Algorithm:   lscr.INS,
			WantWitness: true,
		})
		if err != nil {
			log.Fatal(err)
		}
		if !res.Reachable {
			fmt.Printf("%s: no route\n", desc)
			return
		}
		fmt.Printf("%s:\n  route: %s\n  stop:  %s\n", desc, res.Witness, res.Witness.SatisfiedBy[0])
	}

	// A junction with a fuel station accepting ChargeCardA.
	fuelStop := `SELECT ?x WHERE { ?x <has-poi> ?st. ?st <accepts> <ChargeCardA>. }`

	drive("highways+arterials with a compatible fuel stop",
		[]string{"highway", "arterial", "has-poi", "accepts"}, fuelStop)
	drive("highways only with a compatible fuel stop",
		[]string{"highway", "has-poi", "accepts"}, fuelStop)

	// Avoiding toll roads entirely (the toll label excluded).
	drive("no toll roads, any fuel stop",
		[]string{"highway", "arterial", "residential", "has-poi", "accepts"},
		`SELECT ?x WHERE { ?x <has-poi> ?st. ?st <type-of> <FuelStation>. }`)
}

// buildRoadNetwork lays out a grid of junctions J_r_c with a highway
// spine, arterial rows, residential columns and a few toll shortcuts;
// fuel stations hang off junctions via has-poi edges.
func buildRoadNetwork() string {
	var b strings.Builder
	add := func(s, p, o string) { fmt.Fprintf(&b, "<%s> <%s> <%s> .\n", s, p, o) }
	const rows, cols = 6, 8
	j := func(r, c int) string { return fmt.Sprintf("J_%d_%d", r, c) }

	add("Home", "residential", j(0, 0))
	add("Home", "arterial", j(0, 0)) // the main road out
	add(j(rows-1, cols-1), "arterial", "Airport")

	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				label := "arterial"
				if r == rows/2 {
					label = "highway" // the spine
				}
				add(j(r, c), label, j(r, c+1))
			}
			if r+1 < rows {
				add(j(r, c), "residential", j(r+1, c))
			}
		}
	}
	// On-ramps: residential feeders onto the spine, plus a toll shortcut.
	add(j(0, 0), "arterial", j(rows/2, 0))
	add(j(rows/2, cols-1), "arterial", j(rows-1, cols-1))
	add("Home", "toll", j(rows-1, cols-1))

	// Fuel stations, some accepting ChargeCardA.
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 6; i++ {
		st := fmt.Sprintf("Fuel%d", i)
		add(j(rng.Intn(rows), rng.Intn(cols)), "has-poi", st)
		add(st, "type-of", "FuelStation")
		if i%2 == 0 {
			add(st, "accepts", "ChargeCardA")
		} else {
			add(st, "accepts", "ChargeCardB")
		}
	}
	// Put one compatible station right on the highway spine so the
	// highways-only query has a chance.
	add(j(rows/2, 3), "has-poi", "FuelSpine")
	add("FuelSpine", "type-of", "FuelStation")
	add("FuelSpine", "accepts", "ChargeCardA")
	return b.String()
}
