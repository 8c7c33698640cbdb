package graph

import (
	"bytes"
	"errors"
	"testing"
)

func schemaFixture() *Graph {
	b := NewBuilder()
	b.AddEdgeNames("Taylor", "eg:workWith", "Walker")
	b.AddEdgeNames("Walker", "eg:workWith", "Taylor")
	b.AddEdgeNames("Taylor", "rdf:type", "eg:Researcher")
	b.Schema().AddInstance("eg:Researcher", b.Vertex("Taylor"))
	b.Schema().AddInstance("eg:Researcher", b.Vertex("Walker"))
	b.Schema().AddSubClassOf("eg:Researcher", "eg:Person")
	b.Schema().SetDomain("eg:workWith", "eg:Researcher")
	b.Schema().SetRange("eg:workWith", "eg:Researcher")
	return b.Build()
}

// TestSchemaRoundTrip pins the schema codec in isolation: every schema
// fact survives WriteSchema → ReadSchema, and the decoder rejects
// truncated and over-long sections as ErrCorrupt.
func TestSchemaRoundTrip(t *testing.T) {
	g := schemaFixture()
	var buf bytes.Buffer
	n, err := WriteSchema(&buf, g.Schema())
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Errorf("WriteSchema reported %d bytes, wrote %d", n, buf.Len())
	}
	data := buf.Bytes()
	s, err := ReadSchema(data, g.NumVertices())
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Instances("eg:Researcher")) != 2 {
		t.Fatal("instances lost")
	}
	if cls := s.ClassesOf(g.Vertex("Walker")); len(cls) != 1 || cls[0] != "eg:Researcher" {
		t.Fatalf("class of Walker = %v", cls)
	}
	if sup := s.SuperClasses("eg:Researcher"); len(sup) != 1 || sup[0] != "eg:Person" {
		t.Fatal("subclass lost")
	}
	if d, ok := s.Domain("eg:workWith"); !ok || d != "eg:Researcher" {
		t.Fatal("domain lost")
	}
	if r, ok := s.Range("eg:workWith"); !ok || r != "eg:Researcher" {
		t.Fatal("range lost")
	}

	for name, bad := range map[string][]byte{
		"truncated": data[:len(data)-3],
		"trailing":  append(append([]byte(nil), data...), 0),
	} {
		if _, err := ReadSchema(bad, g.NumVertices()); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s section: err = %v, want ErrCorrupt", name, err)
		}
	}
	if _, err := ReadSchema(data, 1); !errors.Is(err, ErrCorrupt) {
		t.Errorf("instance past |V|: err = %v, want ErrCorrupt", err)
	}
}
