package segment

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"lscr/internal/graph"
	core "lscr/internal/lscr"
)

// Fuzz tier: segment and WAL readers parse attacker-controlled bytes
// at boot, so they must fail closed — an error, never a panic, a hang
// or an absurd allocation — on arbitrary input. Valid images are
// seeded so the fuzzer mutates from realistic structure.

// fuzzSegmentBytes builds one valid segment image to seed from.
func fuzzSegmentBytes(f *testing.F, withIndex bool) []byte {
	f.Helper()
	g := testGraph(f)
	var idx *core.LocalIndex
	indexK := 0
	if withIndex {
		indexK = 4
		idx = core.NewLocalIndex(g, core.IndexParams{K: indexK, Seed: 9})
	}
	dir := f.TempDir()
	path, err := Write(dir, 3, g, idx, indexK, 9)
	if err != nil {
		f.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	return data
}

// FuzzSegmentOpen: OpenBytes on arbitrary bytes either fails with an
// error or yields a segment whose graph is safe to traverse.
func FuzzSegmentOpen(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte(segMagic))
	full := fuzzSegmentBytes(f, true)
	f.Add(full)
	f.Add(fuzzSegmentBytes(f, false))
	f.Add(full[:len(full)-7])
	truncTable := append([]byte(nil), full...)
	f.Add(truncTable[:64])

	f.Fuzz(func(t *testing.T, data []byte) {
		seg, err := OpenBytes(data)
		if err != nil {
			return
		}
		// Accepted input: the decoded graph must be internally
		// consistent enough to walk without faulting.
		g := seg.Graph
		n, m := g.NumVertices(), g.NumEdges()
		if n < 0 || m < 0 {
			t.Fatalf("negative sizes: %d vertices, %d edges", n, m)
		}
		for v := 0; v < n && v < 64; v++ {
			_ = g.Out(graph.VertexID(v))
			_ = g.In(graph.VertexID(v))
		}
		if seg.Index != nil {
			if err := seg.Index.EqualStructure(seg.Index); err != nil {
				t.Fatalf("decoded index not self-equal: %v", err)
			}
		}
		seg.Close()
	})
}

// FuzzWALReplay: opening a log file with arbitrary contents either
// fails or recovers a clean record prefix that survives re-opening
// and further appends; batch payloads feed DecodeOps, which must not
// panic or over-allocate either.
func FuzzWALReplay(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte(walMagic))
	{
		dir := f.TempDir()
		w, _, err := OpenWAL(filepath.Join(dir, walName))
		if err != nil {
			f.Fatal(err)
		}
		payload := EncodeOps([]Op{
			{Kind: OpAddEdge, Subject: "a", Label: "l", Object: "b"},
			{Kind: OpDeleteEdge, Subject: "a", Label: "l", Object: "b"},
			{Kind: OpAddVertex, Subject: "c"},
		})
		if err := w.Append(RecordBatch, 1, payload, false); err != nil {
			f.Fatal(err)
		}
		if err := w.Append(RecordSeal, 2, []byte{1, 0, 0, 0, 0, 0, 0, 0}, true); err != nil {
			f.Fatal(err)
		}
		w.Close()
		data, err := os.ReadFile(filepath.Join(dir, walName))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		f.Add(data[:len(data)-3]) // torn tail
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, walName)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		w, recs, err := OpenWAL(path)
		if err != nil {
			return
		}
		for _, rec := range recs {
			if rec.Kind == RecordBatch {
				if _, err := DecodeOps(rec.Payload); err != nil {
					continue
				}
			}
		}
		// The recovered prefix must be stable: appending past it and
		// re-opening yields the same records plus the new one.
		next := uint64(1)
		if len(recs) > 0 {
			next = recs[len(recs)-1].Seq + 1
			if next == 0 { // Seq saturated; nothing left to append after
				return
			}
		}
		if err := w.Append(RecordBatch, next, EncodeOps([]Op{{Kind: OpAddVertex, Subject: "z"}}), false); err != nil {
			t.Fatalf("append after recovery: %v", err)
		}
		if err := w.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		_, recs2, err := OpenWAL(path)
		if err != nil {
			t.Fatalf("re-open after append: %v", err)
		}
		if len(recs2) != len(recs)+1 {
			t.Fatalf("recovered %d records, then %d after one append", len(recs), len(recs2))
		}
		for i, rec := range recs {
			if rec.Kind != recs2[i].Kind || rec.Seq != recs2[i].Seq || !bytes.Equal(rec.Payload, recs2[i].Payload) {
				t.Fatalf("record %d changed across reopen", i)
			}
		}
	})
}
