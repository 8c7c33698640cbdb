package lscr

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"lscr/internal/graph"
	"lscr/internal/labelset"
	"lscr/internal/testkg"
	"lscr/internal/testkg/pat"
)

// payload serialises idx with WriteIndexPayload, checking the reported
// byte count.
func payload(t testing.TB, idx *LocalIndex) []byte {
	t.Helper()
	var buf bytes.Buffer
	n, err := WriteIndexPayload(&buf, idx)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Errorf("WriteIndexPayload reported %d bytes, buffer has %d", n, buf.Len())
	}
	return buf.Bytes()
}

func TestIndexRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := testkg.Random(rng, 60, 200, 5)
	idx := NewLocalIndex(g, IndexParams{K: 6, Seed: 9})

	got, err := ReadIndexPayload(payload(t, idx), g)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Landmarks()) != len(idx.Landmarks()) {
		t.Fatal("landmark count changed")
	}
	for i := range idx.Landmarks() {
		if got.Landmarks()[i] != idx.Landmarks()[i] {
			t.Fatal("landmarks changed")
		}
	}
	if got.Entries() != idx.Entries() {
		t.Fatalf("entries: %d != %d", got.Entries(), idx.Entries())
	}
	for v := 0; v < g.NumVertices(); v++ {
		if got.Region(graph.VertexID(v)) != idx.Region(graph.VertexID(v)) {
			t.Fatal("region map changed")
		}
	}
	for _, u := range idx.Landmarks() {
		for _, x := range idx.Landmarks() {
			if got.D(u, x) != idx.D(u, x) {
				t.Fatal("D matrix changed")
			}
		}
		for v := 0; v < g.NumVertices(); v++ {
			a, b := idx.II(u, graph.VertexID(v)), got.II(u, graph.VertexID(v))
			if (a == nil) != (b == nil) || (a != nil && !a.Equal(b)) {
				t.Fatal("II changed")
			}
		}
	}
}

// TestIndexPayloadRefusesMaintained: only a freshly built index can be
// sealed. An index maintained through mutations — bound to an overlay
// view, with or without deletion-dirtied landmarks — is refused with
// ErrIndexNotSealed and writes nothing, because the payload has no
// dirty flags and a reopened store would trust its stale entries. A
// fresh build on the compacted graph seals and round-trips.
func TestIndexPayloadRefusesMaintained(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	g := testkg.Random(rng, 40, 160, 3)
	cur := NewLocalIndex(g, IndexParams{K: 8, Seed: 17})
	for batch := 0; batch < 4; batch++ {
		g2, ops := mutStep(rng, cur.Graph(), 8)
		cur, _ = cur.ApplyMutations(g2, ops)
		var buf bytes.Buffer
		if n, err := WriteIndexPayload(&buf, cur); !errors.Is(err, ErrIndexNotSealed) || n != 0 || buf.Len() != 0 {
			t.Fatalf("batch %d: maintained index (dirty=%d) sealed: n=%d err=%v", batch, cur.DirtyLandmarks(), n, err)
		}
	}
	if cur.DirtyLandmarks() == 0 {
		t.Fatal("script produced no dirty landmark; strengthen it")
	}
	flat := cur.Graph().Compact()
	fresh := NewLocalIndex(flat, IndexParams{K: 8, Seed: 17})
	got, err := ReadIndexPayload(payload(t, fresh), flat)
	if err != nil {
		t.Fatal(err)
	}
	if err := got.EqualStructure(fresh); err != nil {
		t.Fatalf("round-trip changed the fresh index: %v", err)
	}
}

// TestIndexRoundTripBehaviour: a loaded index must answer INS queries
// identically to the index it was saved from.
func TestIndexRoundTripBehaviour(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(12) + 2
		g := testkg.Random(rng, n, rng.Intn(30), rng.Intn(4)+1)
		idx := NewLocalIndex(g, IndexParams{K: rng.Intn(n) + 1, Seed: seed})
		loaded, err := ReadIndexPayload(payload(t, idx), g)
		if err != nil {
			return false
		}
		for probe := 0; probe < 4; probe++ {
			c := pat.RandomConstraint(rng, g, 3)
			q := Query{
				Source:     graph.VertexID(rng.Intn(n)),
				Target:     graph.VertexID(rng.Intn(n)),
				Labels:     labelset.Set(rng.Uint64()) & g.LabelUniverse(),
				Constraint: c,
			}
			a, _, err1 := INS(g, idx, q, nil)
			b, _, err2 := INS(g, loaded, q, nil)
			if err1 != nil || err2 != nil || a != b {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestIndexReadRejectsGarbage(t *testing.T) {
	g, _ := testkg.RunningExample()
	if _, err := ReadIndexPayload(nil, g); !errors.Is(err, ErrIndexCorrupt) {
		t.Errorf("empty input: err = %v, want ErrIndexCorrupt", err)
	}
}

func TestIndexReadRejectsCorruption(t *testing.T) {
	g, _ := testkg.RunningExample()
	idx := NewLocalIndex(g, IndexParams{K: 2, Seed: 1})
	data := payload(t, idx)
	// Byte flips are the segment's checksums' job (see
	// TestSegmentCorruptionDetected); the payload decoder itself must
	// reject truncated and over-long input.
	if _, err := ReadIndexPayload(data[:len(data)-8], g); !errors.Is(err, ErrIndexCorrupt) {
		t.Errorf("truncated payload: err = %v, want ErrIndexCorrupt", err)
	}
	if _, err := ReadIndexPayload(append(data[:len(data):len(data)], 0), g); !errors.Is(err, ErrIndexCorrupt) {
		t.Errorf("trailing byte: err = %v, want ErrIndexCorrupt", err)
	}

	// One hand-built case per sparse-D rejection. D is the payload's
	// tail: k+1 u32 offsets, then nnz (landmark index u32, count i32)
	// entries.
	rng := rand.New(rand.NewSource(8))
	rg := testkg.Random(rng, 60, 240, 3)
	ridx := NewLocalIndex(rg, IndexParams{K: 6, Seed: 3})
	k, nnz, wide := len(ridx.drows), 0, -1
	for _, row := range ridx.drows {
		if len(row) >= 2 && wide < 0 {
			wide = nnz
		}
		nnz += len(row)
	}
	if wide < 0 {
		t.Fatal("no D row with two entries; change the graph")
	}
	good := payload(t, ridx)
	offAt := len(good) - 8*nnz - 4*(k+1)
	entAt := len(good) - 8*nnz
	for _, c := range []struct {
		name, want string
		mutate     func(b []byte)
	}{
		{"non-monotone offsets", "not monotone", func(b []byte) {
			binary.LittleEndian.PutUint32(b[offAt+4:], binary.LittleEndian.Uint32(b[offAt+8:])+1)
		}},
		{"offsets[k] ≠ nnz", "offsets end", func(b []byte) {
			binary.LittleEndian.PutUint32(b[offAt+4*k:], uint32(nnz+1))
		}},
		{"landmark index ≥ k", "names landmark index", func(b []byte) {
			binary.LittleEndian.PutUint32(b[entAt:], uint32(k))
		}},
		{"duplicate column", "unsorted or duplicate", func(b []byte) {
			copy(b[entAt+8*(wide+1):entAt+8*(wide+1)+4], b[entAt+8*wide:])
		}},
		{"unsorted columns", "unsorted or duplicate", func(b []byte) {
			x, y := b[entAt+8*wide:entAt+8*wide+4], b[entAt+8*(wide+1):entAt+8*(wide+1)+4]
			var tmp [4]byte
			copy(tmp[:], x)
			copy(x, y)
			copy(y, tmp[:])
		}},
		{"zero count", "stores count 0", func(b []byte) {
			binary.LittleEndian.PutUint32(b[entAt+4:], 0)
		}},
	} {
		b := bytes.Clone(good)
		c.mutate(b)
		_, err := ReadIndexPayload(b, rg)
		if !errors.Is(err, ErrIndexCorrupt) || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want ErrIndexCorrupt mentioning %q", c.name, err, c.want)
		}
	}
}

func TestIndexReadRejectsWrongGraph(t *testing.T) {
	g, _ := testkg.RunningExample()
	idx := NewLocalIndex(g, IndexParams{K: 2, Seed: 1})
	rng := rand.New(rand.NewSource(1))
	other := testkg.Random(rng, 50, 100, 3)
	if _, err := ReadIndexPayload(payload(t, idx), other); !errors.Is(err, ErrIndexMismatch) {
		t.Errorf("index bound to a graph of different size: err = %v", err)
	}
}

func TestIndexWriteDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := testkg.Random(rng, 40, 120, 4)
	idx := NewLocalIndex(g, IndexParams{K: 4, Seed: 2})
	if !bytes.Equal(payload(t, idx), payload(t, idx)) {
		t.Fatal("serialisation is not deterministic")
	}
}

// FuzzReadIndexPayload feeds the index decoder arbitrary bytes directly
// (segment section checksums reject mutated bytes before the decoder
// ever sees them, so FuzzSegmentOpen cannot reach it). Every input must
// either fail with ErrIndexCorrupt or ErrIndexMismatch, or decode to an
// index whose D, Rho and Check answer over all landmark pairs without
// panicking. The fuzz argument `which` picks the graph the payload is
// bound to; the third seed is what a seal writes after mutations, a
// fresh build on the compacted graph.
func FuzzReadIndexPayload(f *testing.F) {
	ex, _ := testkg.RunningExample()
	rng := rand.New(rand.NewSource(11))
	rg := testkg.Random(rng, 50, 200, 4)
	mg := testkg.Random(rng, 40, 160, 3)
	for batch := 0; batch < 4; batch++ {
		mg, _ = mutStep(rng, mg, 8)
	}
	seeds := []*LocalIndex{
		NewLocalIndex(ex, IndexParams{K: 3, Seed: 7}),
		NewLocalIndex(rg, IndexParams{K: 7, Seed: 2}),
		NewLocalIndex(mg.Compact(), IndexParams{K: 8, Seed: 17}),
	}
	for i, idx := range seeds {
		f.Add(uint8(i), payload(f, idx))
	}
	f.Fuzz(func(t *testing.T, which uint8, data []byte) {
		g := seeds[int(which)%len(seeds)].Graph()
		idx, err := ReadIndexPayload(data, g)
		if err != nil {
			if !errors.Is(err, ErrIndexCorrupt) && !errors.Is(err, ErrIndexMismatch) {
				t.Fatalf("untyped decode error: %v", err)
			}
			return
		}
		universe := g.LabelUniverse()
		for _, u := range idx.Landmarks() {
			for _, x := range idx.Landmarks() {
				idx.D(u, x)
				idx.Rho(u, x)
				idx.Check(u, x, universe)
			}
		}
	})
}
