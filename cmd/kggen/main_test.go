package main

import (
	"bytes"
	"testing"

	"lscr/internal/rdf"
)

func TestRunLUBM(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, "lubm", 1, 0, 0, 1); err != nil {
		t.Fatal(err)
	}
	g, err := rdf.Load(&buf)
	if err != nil {
		t.Fatalf("output is not loadable: %v", err)
	}
	if g.NumVertices() == 0 {
		t.Fatal("empty output")
	}
}

func TestRunYago(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, "yago", 0, 500, 0, 1); err != nil {
		t.Fatal(err)
	}
	g, err := rdf.Load(&buf)
	if err != nil {
		t.Fatalf("output is not loadable: %v", err)
	}
	if g.NumVertices() < 500 {
		t.Fatalf("|V| = %d", g.NumVertices())
	}
}

func TestRunUnknownKind(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, "nope", 1, 1, 0, 1); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

func TestRunEdgeTarget(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, "yago", 0, 0, 5000, 1); err != nil {
		t.Fatal(err)
	}
	g, err := rdf.Load(&buf)
	if err != nil {
		t.Fatalf("output is not loadable: %v", err)
	}
	if g.NumEdges() < 5000 {
		t.Fatalf("-edges 5000 produced only %d edges", g.NumEdges())
	}
}
