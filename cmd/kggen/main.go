// Command kggen emits a synthetic knowledge graph as an N-Triples-style
// stream on stdout.
//
// Usage:
//
//	kggen -kind lubm -scale 2 > lubm2.nt     # LUBM-style, 2 universities
//	kggen -kind yago -entities 50000 > y.nt  # YAGO-style scale-free KG
//	kggen -kind lubm -edges 1200000 > big.nt # sized by edge target instead
//
// -edges overrides -scale/-entities: the generator is scaled so the
// output has at least that many edges (the scale benchmark tier's
// sizing knob).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"lscr/internal/graph"
	"lscr/internal/lubm"
	"lscr/internal/rdf"
	"lscr/internal/yagogen"
)

func main() {
	var (
		kind     = flag.String("kind", "lubm", "generator: lubm or yago")
		scale    = flag.Int("scale", 1, "lubm: number of universities")
		entities = flag.Int("entities", 10000, "yago: number of entities")
		seed     = flag.Int64("seed", 1, "generator seed")
		edges    = flag.Int("edges", 0, "size the graph by edge target instead of -scale/-entities")
	)
	flag.Parse()
	if err := run(os.Stdout, *kind, *scale, *entities, *edges, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "kggen:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, kind string, scale, entities, edges int, seed int64) error {
	var g *graph.Graph
	switch kind {
	case "lubm":
		cfg := lubm.DefaultConfig(scale)
		if edges > 0 {
			cfg = lubm.ConfigForEdges(edges)
		}
		cfg.Seed = seed
		g = lubm.Generate(cfg)
	case "yago":
		cfg := yagogen.DefaultConfig(entities)
		if edges > 0 {
			cfg = yagogen.ConfigForEdges(edges)
		}
		cfg.Seed = seed
		g = yagogen.Generate(cfg)
	default:
		return fmt.Errorf("unknown generator kind %q", kind)
	}
	return rdf.Dump(g, w)
}
