package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const testKG = `
<C> <apr> <X> .
<X> <apr> <P> .
<X> <married> <Amy> .
<C> <may> <P> .
`

const marriedToAmy = `SELECT ?x WHERE { ?x <married> <Amy>. }`

func writeKG(t *testing.T) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), "kg.nt")
	if err := os.WriteFile(p, []byte(testKG), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func baseOpts(p string) options {
	return options{
		kgPath: p, from: "C", to: "P",
		labels: "apr,married", constraint: marriedToAmy, algoName: "ins",
	}
}

func TestRunReachable(t *testing.T) {
	p := writeKG(t)
	for _, algo := range []string{"ins", "uis", "uisstar"} {
		o := baseOpts(p)
		o.algoName = algo
		o.verbose = true
		var buf bytes.Buffer
		code, err := run(context.Background(), &buf, o)
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if code != 0 || !strings.Contains(buf.String(), "reachable") {
			t.Errorf("%s: code=%d out=%q", algo, code, buf.String())
		}
	}
}

func TestRunWitness(t *testing.T) {
	p := writeKG(t)
	o := baseOpts(p)
	o.witness = true
	var buf bytes.Buffer
	code, err := run(context.Background(), &buf, o)
	if err != nil || code != 0 {
		t.Fatalf("code=%d err=%v", code, err)
	}
	out := buf.String()
	if !strings.Contains(out, "witness: C -[apr]-> X") {
		t.Errorf("witness missing: %q", out)
	}
	if !strings.Contains(out, "satisfying vertex: X") {
		t.Errorf("satisfying vertex missing: %q", out)
	}
}

// TestRunAlgorithmNames: -algo takes the wire's algorithm names, so the
// conjunctive search answers (with its own witness walk), and a name
// outside them exits 2.
func TestRunAlgorithmNames(t *testing.T) {
	p := writeKG(t)
	o := baseOpts(p)
	o.algoName, o.witness = "conjunctive", true
	var buf bytes.Buffer
	code, err := run(context.Background(), &buf, o)
	if err != nil || code != 0 {
		t.Fatalf("conjunctive: code=%d err=%v", code, err)
	}
	if out := buf.String(); !strings.Contains(out, "witness: C -[apr]-> X") || !strings.Contains(out, "satisfying vertex: X") {
		t.Errorf("conjunctive witness missing: %q", out)
	}
	o.algoName = "astar"
	if code, err := run(context.Background(), &buf, o); err == nil || code != 2 {
		t.Errorf("astar: code=%d err=%v, want code 2 and an error", code, err)
	}
}

func TestRunSearchTree(t *testing.T) {
	p := writeKG(t)
	dotPath := filepath.Join(t.TempDir(), "tree.dot")
	o := baseOpts(p)
	o.searchTree = dotPath
	var buf bytes.Buffer
	if code, err := run(context.Background(), &buf, o); err != nil || code != 0 {
		t.Fatalf("code=%d err=%v", code, err)
	}
	data, err := os.ReadFile(dotPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "digraph") {
		t.Fatalf("DOT output malformed: %q", data)
	}
}

func TestRunNotReachable(t *testing.T) {
	p := writeKG(t)
	o := baseOpts(p)
	o.labels = "may"
	var buf bytes.Buffer
	code, err := run(context.Background(), &buf, o)
	if err != nil {
		t.Fatal(err)
	}
	if code != 1 || !strings.Contains(buf.String(), "not reachable") {
		t.Errorf("code=%d out=%q", code, buf.String())
	}
}

// TestRunIndexFileRoundTrip: the first -data run creates the store from
// -kg, a later run opens it with no -kg at all — the persisted graph and
// index answer on their own.
func TestRunIndexFileRoundTrip(t *testing.T) {
	p := writeKG(t)
	dataDir := filepath.Join(t.TempDir(), "store")
	o := baseOpts(p)
	o.dataDir = dataDir
	var buf bytes.Buffer
	if code, err := run(context.Background(), &buf, o); err != nil || code != 0 {
		t.Fatalf("first run (create): code=%d err=%v", code, err)
	}
	if segs, _ := filepath.Glob(filepath.Join(dataDir, "seg-*.lscrseg")); len(segs) != 1 {
		t.Fatalf("store not created: segments %v", segs)
	}
	// Second run opens the store; the KG file is not needed any more.
	o.kgPath = ""
	if code, err := run(context.Background(), &buf, o); err != nil || code != 0 {
		t.Fatalf("second run (open): code=%d err=%v", code, err)
	}
}

func TestRunErrors(t *testing.T) {
	p := writeKG(t)
	cases := []struct {
		name string
		mod  func(*options)
	}{
		{"missing flags", func(o *options) { o.kgPath = "" }},
		{"bad algorithm", func(o *options) { o.algoName = "astar" }},
		{"missing file", func(o *options) { o.kgPath = p + ".nope" }},
		{"ins without index", func(o *options) { o.noIndex = true }},
		{"unknown vertex", func(o *options) { o.from = "nobody" }},
		{"data dir is a file", func(o *options) { o.dataDir = p }},
		{"empty data dir without kg", func(o *options) { o.kgPath, o.dataDir = "", t.TempDir() }},
	}
	for _, tc := range cases {
		o := baseOpts(p)
		tc.mod(&o)
		var buf bytes.Buffer
		if _, err := run(context.Background(), &buf, o); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
}

func TestRunNoIndexUIS(t *testing.T) {
	p := writeKG(t)
	o := baseOpts(p)
	o.noIndex = true
	o.algoName = "uis"
	var buf bytes.Buffer
	code, err := run(context.Background(), &buf, o)
	if err != nil || code != 0 {
		t.Fatalf("uis without index: code=%d err=%v", code, err)
	}
}
