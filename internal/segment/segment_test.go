package segment

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"lscr/internal/graph"
	lscrcore "lscr/internal/lscr"
	"lscr/internal/rdf"
)

// testGraph builds a small multigraph with RDFS class facts, enough
// structure to exercise every section: several labels, parallel edges,
// an isolated vertex, class instances and subclass pairs.
func testGraph(t testing.TB) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder()
	for i := 0; i < 40; i++ {
		b.AddEdgeNames(fmt.Sprintf("v%d", i), fmt.Sprintf("l%d", i%5), fmt.Sprintf("v%d", (i*7+3)%23))
	}
	b.AddEdgeNames("v1", "l0", "v2") // parallel edge
	b.Vertex("isolated")
	b.AddEdgeNames("v1", rdf.TypePredicate, "Person")
	b.AddEdgeNames("v3", rdf.TypePredicate, "Person")
	b.AddEdgeNames("v5", rdf.TypePredicate, "City")
	b.AddEdgeNames("Person", rdf.SubClassOfPredicate, "Agent")
	b.AddEdgeNames("l0", rdf.DomainPredicate, "Person")
	b.AddEdgeNames("l0", rdf.RangePredicate, "City")
	return b.Build()
}

func triples(g *graph.Graph) []graph.Triple {
	var out []graph.Triple
	g.Triples(func(tr graph.Triple) bool { out = append(out, tr); return true })
	return out
}

func TestSegmentRoundTrip(t *testing.T) {
	g := testGraph(t)
	idx := lscrcore.NewLocalIndex(g, lscrcore.IndexParams{K: 6, Seed: 42})
	dir := t.TempDir()

	path, err := Write(dir, 7, g, idx, 6, 42)
	if err != nil {
		t.Fatalf("Write: %v", err)
	}
	if want := PathFor(dir, 7); path != want {
		t.Fatalf("path %q, want %q", path, want)
	}
	seg, err := OpenDir(dir)
	if err != nil {
		t.Fatalf("OpenDir: %v", err)
	}
	defer seg.Close()

	if seg.BaseSeq != 7 || seg.IndexK != 6 || seg.IndexSeed != 42 {
		t.Fatalf("meta = (%d, %d, %d), want (7, 6, 42)", seg.BaseSeq, seg.IndexK, seg.IndexSeed)
	}
	h := seg.Graph
	if h.NumVertices() != g.NumVertices() || h.NumEdges() != g.NumEdges() || h.NumLabels() != g.NumLabels() {
		t.Fatalf("sizes: got %v, want %v", h, g)
	}
	for v := 0; v < g.NumVertices(); v++ {
		if h.VertexName(graph.VertexID(v)) != g.VertexName(graph.VertexID(v)) {
			t.Fatalf("vertex %d name mismatch", v)
		}
		if h.Vertex(g.VertexName(graph.VertexID(v))) != graph.VertexID(v) {
			t.Fatalf("vertex %d lookup mismatch", v)
		}
	}
	for l := 0; l < g.NumLabels(); l++ {
		if h.LabelName(graph.Label(l)) != g.LabelName(graph.Label(l)) {
			t.Fatalf("label %d name mismatch", l)
		}
	}
	gt, ht := triples(g), triples(h)
	if len(gt) != len(ht) {
		t.Fatalf("triple counts: %d vs %d", len(gt), len(ht))
	}
	for i := range gt {
		if gt[i] != ht[i] {
			t.Fatalf("triple %d: %v vs %v", i, gt[i], ht[i])
		}
	}
	gc, hc := rdf.Classes(g), rdf.Classes(h)
	if !slices.Equal(gc, hc) || len(gc) != 3 {
		t.Fatalf("classes: %v vs %v", gc, hc)
	}
	typ, _ := h.LabelByName(rdf.TypePredicate)
	for _, c := range gc {
		if !slices.Equal(g.InWith(c, typ), h.InWith(c, typ)) {
			t.Fatalf("class %q instances differ", g.VertexName(c))
		}
	}
	dom, _ := h.LabelByName(rdf.DomainPredicate)
	if !h.HasEdge(h.Vertex("l0"), dom, h.Vertex("Person")) {
		t.Fatal("domain(l0) edge missing")
	}
	if seg.Index == nil {
		t.Fatal("index section missing")
	}
	if err := idx.EqualStructure(seg.Index); err != nil {
		t.Fatalf("index structure: %v", err)
	}
}

func TestSegmentNoIndex(t *testing.T) {
	g := testGraph(t)
	dir := t.TempDir()
	if _, err := Write(dir, 0, g, nil, 0, 0); err != nil {
		t.Fatalf("Write: %v", err)
	}
	seg, err := OpenDir(dir)
	if err != nil {
		t.Fatalf("OpenDir: %v", err)
	}
	defer seg.Close()
	if seg.Index != nil {
		t.Fatal("unexpected index")
	}
}

func TestOpenDirPicksNewest(t *testing.T) {
	g := testGraph(t)
	dir := t.TempDir()
	for _, seq := range []uint64{0, 12, 5} {
		if _, err := Write(dir, seq, g, nil, 0, 0); err != nil {
			t.Fatalf("Write(%d): %v", seq, err)
		}
	}
	seg, err := OpenDir(dir)
	if err != nil {
		t.Fatalf("OpenDir: %v", err)
	}
	defer seg.Close()
	if seg.BaseSeq != 12 {
		t.Fatalf("BaseSeq = %d, want 12", seg.BaseSeq)
	}
	if err := RemoveObsolete(dir, PathFor(dir, 12)); err != nil {
		t.Fatalf("RemoveObsolete: %v", err)
	}
	paths, _ := List(dir)
	if len(paths) != 1 || paths[0] != PathFor(dir, 12) {
		t.Fatalf("after prune: %v", paths)
	}
}

func TestOpenDirEmpty(t *testing.T) {
	if _, err := OpenDir(t.TempDir()); !errors.Is(err, ErrNoSegment) {
		t.Fatalf("err = %v, want ErrNoSegment", err)
	}
}

// TestSegmentCorruptionDetected flips every byte of a sealed segment in
// turn (coarse stride for speed) and asserts Open fails closed with a
// typed error rather than succeeding or panicking.
func TestSegmentCorruptionDetected(t *testing.T) {
	g := testGraph(t)
	idx := lscrcore.NewLocalIndex(g, lscrcore.IndexParams{K: 4, Seed: 1})
	dir := t.TempDir()
	path, err := Write(dir, 1, g, idx, 4, 1)
	if err != nil {
		t.Fatalf("Write: %v", err)
	}
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for pos := 0; pos < len(orig); pos += 37 {
		mut := bytes.Clone(orig)
		mut[pos] ^= 0x5a
		if _, err := OpenBytes(mut); err == nil {
			t.Fatalf("corruption at byte %d went undetected", pos)
		}
	}
	// Truncations must fail closed too.
	for _, n := range []int{0, 7, 40, len(orig) / 2, len(orig) - 1} {
		if _, err := OpenBytes(orig[:n]); err == nil {
			t.Fatalf("truncation to %d bytes went undetected", n)
		}
	}
}

// TestSegmentRetiredFormatRefused: a store written in a retired format
// (LSCRSEG1 with its dense D matrix, LSCRSEG2 with its schema section,
// LSCRSEG3 with its maintained-index payload fields) fails to open with a message naming the format and the remedy, still
// classified as corruption.
func TestSegmentRetiredFormatRefused(t *testing.T) {
	g := testGraph(t)
	idx := lscrcore.NewLocalIndex(g, lscrcore.IndexParams{K: 4, Seed: 1})
	path, err := Write(t.TempDir(), 1, g, idx, 4, 1)
	if err != nil {
		t.Fatalf("Write: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, magic := range []string{"LSCRSEG1", "LSCRSEG2", "LSCRSEG3"} {
		copy(data, magic)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		want := "segment format " + magic + " is no longer readable; re-create the store"
		_, err = Open(path)
		if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), want) {
			t.Fatalf("Open(%s store) = %v, want ErrCorrupt with %q", magic, err, want)
		}
	}
	copy(data, "LSCRSEGX")
	if _, err := OpenBytes(data); !errors.Is(err, ErrCorrupt) || strings.Contains(err.Error(), "no longer readable") {
		t.Fatalf("OpenBytes(unknown magic) = %v, want a plain bad-magic ErrCorrupt", err)
	}
}

// TestSegmentWriteRefusesForeignIndex: Write seals an index only
// together with the graph it is bound to. An index built for another
// graph, or one maintained through a batch and then paired with the
// compacted graph, is refused and leaves no segment behind.
func TestSegmentWriteRefusesForeignIndex(t *testing.T) {
	g := testGraph(t)
	other := testGraph(t)
	d := graph.NewDelta(g)
	if err := d.AddEdge(1, 0, 2); err != nil {
		t.Fatal(err)
	}
	ops := d.EdgeOps()
	g2, err := d.Commit()
	if err != nil {
		t.Fatal(err)
	}
	maintained, _ := lscrcore.NewLocalIndex(g, lscrcore.IndexParams{K: 4, Seed: 1}).ApplyMutations(g2, ops)
	for _, c := range []struct {
		name string
		seal *graph.Graph
		idx  *lscrcore.LocalIndex
	}{
		{"built for another graph", g, lscrcore.NewLocalIndex(other, lscrcore.IndexParams{K: 4, Seed: 1})},
		{"maintained, then compacted", g2.Compact(), maintained},
	} {
		dir := t.TempDir()
		if _, err := Write(dir, 1, c.seal, c.idx, 4, 1); err == nil || !strings.Contains(err.Error(), "not bound") {
			t.Errorf("%s: Write = %v, want a not-bound refusal", c.name, err)
		}
		if left, _ := os.ReadDir(dir); len(left) != 0 {
			t.Errorf("%s: refused Write left %d files behind", c.name, len(left))
		}
	}
}

func TestWALRoundTripAndTornTail(t *testing.T) {
	dir := t.TempDir()
	path := WALPath(dir)
	w, recs, err := OpenWAL(path)
	if err != nil {
		t.Fatalf("OpenWAL: %v", err)
	}
	if len(recs) != 0 {
		t.Fatalf("fresh wal has %d records", len(recs))
	}
	batches := [][]Op{
		{{Kind: OpAddEdge, Subject: "a", Label: "l", Object: "b"}},
		{{Kind: OpDeleteEdge, Subject: "a", Label: "l", Object: "b"}, {Kind: OpAddVertex, Subject: "c"}},
	}
	for i, b := range batches {
		if err := w.Append(RecordBatch, uint64(i+1), EncodeOps(b), true); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := w.Append(RecordSeal, 3, nil, true); err != nil {
		t.Fatalf("Append seal: %v", err)
	}
	st := w.Stats()
	if st.Records != 3 || st.LastSync.IsZero() {
		t.Fatalf("stats = %+v", st)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	w2, recs, err := OpenWAL(path)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	w2.Close()
	if len(recs) != 3 || recs[2].Kind != RecordSeal || recs[2].Seq != 3 {
		t.Fatalf("replayed %d records: %+v", len(recs), recs)
	}
	ops, err := DecodeOps(recs[1].Payload)
	if err != nil || len(ops) != 2 || ops[1].Subject != "c" {
		t.Fatalf("decode: %v %+v", err, ops)
	}

	// Tear the tail mid-record: replay drops exactly the torn record.
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, full[:len(full)-5], 0o644); err != nil {
		t.Fatal(err)
	}
	w3, recs, err := OpenWAL(path)
	if err != nil {
		t.Fatalf("torn reopen: %v", err)
	}
	if len(recs) != 2 {
		t.Fatalf("torn replay kept %d records, want 2", len(recs))
	}
	// The torn suffix must be gone so new appends start clean.
	if err := w3.Append(RecordSeal, 3, nil, true); err != nil {
		t.Fatalf("append after tear: %v", err)
	}
	w3.Close()
	w4, recs, err := OpenWAL(path)
	if err != nil {
		t.Fatalf("reopen after re-append: %v", err)
	}
	w4.Close()
	if len(recs) != 3 || recs[2].Seq != 3 {
		t.Fatalf("after re-append: %+v", recs)
	}
}

func TestWALRotate(t *testing.T) {
	dir := t.TempDir()
	w, _, err := OpenWAL(WALPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for seq := uint64(1); seq <= 5; seq++ {
		if err := w.Append(RecordBatch, seq, EncodeOps([]Op{{Kind: OpAddVertex, Subject: "x"}}), false); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Rotate(3); err != nil {
		t.Fatalf("Rotate: %v", err)
	}
	if st := w.Stats(); st.Records != 2 {
		t.Fatalf("post-rotate records = %d, want 2", st.Records)
	}
	// Appends after rotation land in the new file.
	if err := w.Append(RecordBatch, 6, nil, true); err != nil {
		t.Fatal(err)
	}
	w.Close()
	_, recs, err := OpenWAL(WALPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 || recs[0].Seq != 4 || recs[2].Seq != 6 {
		t.Fatalf("rotated wal: %+v", recs)
	}
	if _, err := os.Stat(filepath.Join(dir, walName+tmpSuffix)); !os.IsNotExist(err) {
		t.Fatalf("rotate temp left behind: %v", err)
	}
}

func TestOpsCodecHostileInput(t *testing.T) {
	ops := []Op{{Kind: OpAddEdge, Subject: "s", Label: "l", Object: "o"}}
	enc := EncodeOps(ops)
	dec, err := DecodeOps(enc)
	if err != nil || len(dec) != 1 || dec[0] != ops[0] {
		t.Fatalf("round trip: %v %+v", err, dec)
	}
	for _, b := range [][]byte{
		nil,
		{0xff, 0xff, 0xff, 0xff},    // huge count, no data
		enc[:len(enc)-2],            // truncated string
		append(bytes.Clone(enc), 0), // trailing garbage
	} {
		if _, err := DecodeOps(b); err == nil {
			t.Fatalf("hostile input %v decoded", b)
		}
	}
}
