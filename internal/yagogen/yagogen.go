// Package yagogen generates scale-free knowledge graphs in the shape of
// YAGO [18], the real KG of the paper's §6.2 experiment. The original
// YAGO dump is not redistributable here; what the experiment actually
// exercises — a scale-free degree distribution, a class/instance
// layer, and a Zipfian relation-label mix over which random substructure
// constraints of controlled |V(S,G)| can be generated — is reproduced
// synthetically instead.
//
// The generator uses preferential attachment (the paper cites [20] for
// RDFS representing KGs as scale-free networks): each new entity attaches
// its out-edges to targets sampled proportionally to degree, producing a
// heavy-tailed in-degree distribution like YAGO's.
package yagogen

import (
	"fmt"
	"math/rand"

	"lscr/internal/graph"
	"lscr/internal/rdf"
)

// Config parametrises the generator.
type Config struct {
	// Entities is the number of instance vertices (classes and literals
	// are added on top).
	Entities int
	// EdgesPerEntity is the mean number of relation out-edges per entity
	// (YAGO: |E|/|V| ≈ 3.2 including type edges).
	EdgesPerEntity int
	// Classes is the size of the class layer.
	Classes int
	// Relations is the number of relation labels (plus rdf:type).
	Relations int
	Seed      int64
}

// DefaultConfig returns a configuration mirroring YAGO's shape at the
// given entity count.
func DefaultConfig(entities int) Config {
	return Config{
		Entities:       entities,
		EdgesPerEntity: 2,
		Classes:        40,
		Relations:      30,
		Seed:           1,
	}
}

// edgesPerEntity is the measured total edge yield per entity at
// DefaultConfig (relation out-edges plus type/taxonomy edges ≈ 3.0;
// rounded down so ConfigForEdges overshoots rather than undershoots).
const edgesPerEntity = 2.8

// ConfigForEdges returns a DefaultConfig scaled so the generated graph
// has at least edges edges — the sizing knob of the scale benchmark
// tier and kggen's -edges flag.
func ConfigForEdges(edges int) Config {
	entities := int(float64(edges)/edgesPerEntity) + 1
	if entities < 2 {
		entities = 2
	}
	return DefaultConfig(entities)
}

// Generate builds the knowledge graph.
func Generate(cfg Config) *graph.Graph {
	if cfg.Entities < 2 {
		cfg.Entities = 2
	}
	if cfg.EdgesPerEntity < 1 {
		cfg.EdgesPerEntity = 1
	}
	if cfg.Classes < 1 {
		cfg.Classes = 1
	}
	if cfg.Relations < 1 {
		cfg.Relations = 1
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	classZipf := rand.NewZipf(rng, 1.5, 1, uint64(cfg.Classes-1))
	relZipf := rand.NewZipf(rng, 1.2, 4, uint64(cfg.Relations-1))
	b := graph.NewBuilder()

	// Class layer with a subclass chain, like YAGO's taxonomy backbone.
	classes := make([]string, cfg.Classes)
	for i := range classes {
		classes[i] = fmt.Sprintf("class%d", i)
		if i > 0 {
			b.AddEdgeNames(classes[i], rdf.SubClassOfPredicate, classes[(i-1)/2])
		}
	}
	relations := make([]string, cfg.Relations)
	for i := range relations {
		relations[i] = fmt.Sprintf("rel%d", i)
	}

	// Entities with preferential attachment. The repeated-targets slice
	// doubles as the attachment distribution: every edge endpoint is
	// appended, so sampling uniformly from it is degree-proportional.
	entities := make([]graph.VertexID, cfg.Entities)
	var attach []graph.VertexID
	typeLabel := b.Label(rdf.TypePredicate)
	for i := 0; i < cfg.Entities; i++ {
		name := fmt.Sprintf("e%d", i)
		v := b.Vertex(name)
		entities[i] = v
		// Zipfian class choice: low class IDs are much more common.
		class := classes[classZipf.Uint64()]
		b.AddEdge(v, typeLabel, b.Vertex(class))
		attach = append(attach, v)

		m := 1 + rng.Intn(2*cfg.EdgesPerEntity-1)
		for j := 0; j < m && i > 0; j++ {
			var target graph.VertexID
			if rng.Intn(5) == 0 {
				target = entities[rng.Intn(i)] // uniform escape hatch
			} else {
				target = attach[rng.Intn(len(attach))]
			}
			if target == v {
				continue
			}
			rel := relations[relZipf.Uint64()]
			// Half the relations point away from the new entity, half
			// toward it (YAGO mixes e.g. bornIn with hasChild), keeping
			// forward reachability rich and cyclic like the real KG.
			if rng.Intn(2) == 0 {
				b.AddEdge(v, b.Label(rel), target)
			} else {
				b.AddEdge(target, b.Label(rel), v)
			}
			attach = append(attach, target, v)
		}
	}
	return b.Build()
}
