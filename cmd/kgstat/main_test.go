package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestRunOnTriples(t *testing.T) {
	var in bytes.Buffer
	in.WriteString("<a> <p> <b> .\n<b> <p> <a> .\n<b> <q> <c> .\n")
	var out bytes.Buffer
	if err := run(&out, &in, 5); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"vertices  3", "edges     3", "labels    2",
		"top labels", "SCCs: 2 total, 1 non-trivial, largest 2"} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
}

func TestRunBadInput(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out, strings.NewReader("junk"), 3); err == nil {
		t.Fatal("garbage accepted")
	}
}
