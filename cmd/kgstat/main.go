// Command kgstat prints structural statistics of a knowledge graph:
// sizes, density, label histogram, degree distribution and strongly
// connected component structure.
//
//	kgstat -kg graph.nt
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"lscr/internal/graph"
	"lscr/internal/lcr"
	"lscr/internal/rdf"
)

func main() {
	kgPath := flag.String("kg", "", "path to the KG as N-Triples (required)")
	top := flag.Int("top", 10, "show the top-N labels and degrees")
	flag.Parse()
	if *kgPath == "" {
		fmt.Fprintln(os.Stderr, "kgstat: -kg is required")
		os.Exit(2)
	}
	f, err := os.Open(*kgPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "kgstat:", err)
		os.Exit(2)
	}
	defer f.Close()
	if err := run(os.Stdout, f, *top); err != nil {
		fmt.Fprintln(os.Stderr, "kgstat:", err)
		os.Exit(2)
	}
}

func run(w io.Writer, r io.Reader, top int) error {
	g, err := rdf.Load(r)
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "vertices  %d\n", g.NumVertices())
	fmt.Fprintf(w, "edges     %d\n", g.NumEdges())
	fmt.Fprintf(w, "labels    %d\n", g.NumLabels())
	fmt.Fprintf(w, "density   %.2f\n", g.Density())
	classes, instances := rdf.Classes(g), 0
	if typ, ok := g.LabelByName(rdf.TypePredicate); ok {
		for _, c := range classes {
			instances += len(g.InWith(c, typ))
		}
	}
	fmt.Fprintf(w, "classes   %d (instances: %d)\n", len(classes), instances)

	// Label histogram.
	counts := make([]int, g.NumLabels())
	g.Triples(func(tr graph.Triple) bool {
		counts[tr.Label]++
		return true
	})
	type lc struct {
		name string
		n    int
	}
	var labels []lc
	for i, n := range counts {
		labels = append(labels, lc{g.LabelName(graph.Label(i)), n})
	}
	sort.Slice(labels, func(i, j int) bool { return labels[i].n > labels[j].n })
	fmt.Fprintf(w, "\ntop labels:\n")
	for i, l := range labels {
		if i == top {
			break
		}
		fmt.Fprintf(w, "  %-40s %d\n", l.name, l.n)
	}

	// Degree distribution.
	degs := make([]int, g.NumVertices())
	maxOut, maxIn := 0, 0
	for v := 0; v < g.NumVertices(); v++ {
		degs[v] = g.Degree(graph.VertexID(v))
		if d := g.OutDegree(graph.VertexID(v)); d > maxOut {
			maxOut = d
		}
		if d := g.InDegree(graph.VertexID(v)); d > maxIn {
			maxIn = d
		}
	}
	sort.Sort(sort.Reverse(sort.IntSlice(degs)))
	fmt.Fprintf(w, "\ndegrees: max-out %d, max-in %d", maxOut, maxIn)
	if n := len(degs); n > 0 {
		fmt.Fprintf(w, ", median %d, p99 %d\n", degs[n/2], degs[n/100])
	} else {
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "top total degrees:\n")
	hubs := make([]graph.VertexID, g.NumVertices())
	for i := range hubs {
		hubs[i] = graph.VertexID(i)
	}
	sort.Slice(hubs, func(i, j int) bool {
		return g.Degree(hubs[i]) > g.Degree(hubs[j])
	})
	for i, v := range hubs {
		if i == top {
			break
		}
		fmt.Fprintf(w, "  %-40s %d\n", g.VertexName(v), g.Degree(v))
	}

	// SCC structure (plain Tarjan; no closures).
	_, members := lcr.SCCs(g)
	largest := 0
	nontrivial := 0
	for _, m := range members {
		if len(m) > largest {
			largest = len(m)
		}
		if len(m) > 1 {
			nontrivial++
		}
	}
	fmt.Fprintf(w, "\nSCCs: %d total, %d non-trivial, largest %d vertices\n",
		len(members), nontrivial, largest)
	return nil
}
