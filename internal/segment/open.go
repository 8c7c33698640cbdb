package segment

import (
	"fmt"

	"lscr/internal/graph"
	"lscr/internal/labelset"
	lscrcore "lscr/internal/lscr"
)

// Segment is one opened on-disk segment: a complete engine state at
// BaseSeq. Graph (and Index, when present) alias the underlying mapping
// — they stay valid until Close, which must not run while anything
// still reads them.
type Segment struct {
	Path      string
	BaseSeq   uint64
	IndexK    int
	IndexSeed int64
	Size      int64
	Graph     *graph.Graph
	Index     *lscrcore.LocalIndex // nil when the segment has no index section

	unmap func() error // nil when the data is heap-backed
}

// Close releases the mapping. The Graph/Index become invalid; callers
// drain readers first.
func (s *Segment) Close() error {
	if s.unmap == nil {
		return nil
	}
	u := s.unmap
	s.unmap = nil
	return u()
}

// OpenDir opens the newest sealed segment in dir, or ErrNoSegment when
// none exists. Older segments are not fallbacks: the WAL is rotated
// against the newest seal, so silently serving an older base could drop
// committed batches. A corrupt newest segment is therefore an error.
func OpenDir(dir string) (*Segment, error) {
	paths, err := List(dir)
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, ErrNoSegment
	}
	return Open(paths[len(paths)-1])
}

// Open maps path and assembles the engine state over the mapping.
func Open(path string) (*Segment, error) {
	data, unmap, err := mapFile(path)
	if err != nil {
		return nil, err
	}
	seg, err := OpenBytes(data)
	if err != nil {
		if unmap != nil {
			unmap()
		}
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	seg.Path = path
	seg.unmap = unmap
	return seg, nil
}

// OpenBytes assembles a Segment over an in-memory image. data must stay
// live and unmodified for the Segment's lifetime (the graph arrays and
// dictionary strings alias it). It is the whole untrusted-input surface:
// checksums, bounds and structural invariants are all verified here, so
// arbitrary bytes can fail but never panic or over-allocate — the
// contract FuzzSegmentOpen exercises.
func OpenBytes(data []byte) (*Segment, error) {
	h, err := parseHeader(data)
	if err != nil {
		return nil, err
	}
	labelSec, err := sectionBytes(data, h, secLabelDict)
	if err != nil {
		return nil, err
	}
	labels, err := parseDict(labelSec)
	if err != nil {
		return nil, fmt.Errorf("label dict: %w", err)
	}
	if len(labels) > labelset.MaxLabels {
		return nil, corruptf("label count %d exceeds universe %d", len(labels), labelset.MaxLabels)
	}
	nameSec, err := sectionBytes(data, h, secVertexDict)
	if err != nil {
		return nil, err
	}
	names, err := parseDict(nameSec)
	if err != nil {
		return nil, fmt.Errorf("vertex dict: %w", err)
	}
	orderSec, err := sectionBytes(data, h, secNameIdx)
	if err != nil {
		return nil, err
	}
	if len(orderSec) != 4*len(names) {
		return nil, corruptf("name order holds %d bytes for %d vertices", len(orderSec), len(names))
	}
	nameOrder := u32View(orderSec, len(names))
	outSec, err := sectionBytes(data, h, secCSROut)
	if err != nil {
		return nil, err
	}
	out, err := parseCSR(outSec, len(names))
	if err != nil {
		return nil, fmt.Errorf("csr-out: %w", err)
	}
	inSec, err := sectionBytes(data, h, secCSRIn)
	if err != nil {
		return nil, err
	}
	in, err := parseCSR(inSec, len(names))
	if err != nil {
		return nil, fmt.Errorf("csr-in: %w", err)
	}
	g, err := graph.FromParts(names, labels, nameOrder, out, in)
	if err != nil {
		return nil, err
	}
	seg := &Segment{
		BaseSeq:   h.baseSeq,
		IndexK:    int(h.indexK),
		IndexSeed: h.indexSeed,
		Size:      int64(len(data)),
		Graph:     g,
	}
	if h.flags&flagHasIndex != 0 {
		idxSec, err := sectionBytes(data, h, secIndex)
		if err != nil {
			return nil, err
		}
		idx, err := lscrcore.ReadIndexPayload(idxSec, g)
		if err != nil {
			return nil, err
		}
		seg.Index = idx
	}
	return seg, nil
}

// parseDict decodes a string-table section: count, count+1 cumulative
// offsets, padding, blob. The returned strings alias the section bytes.
func parseDict(b []byte) ([]string, error) {
	if len(b) < 8 {
		return nil, corruptf("dict too small")
	}
	n := int64(u32at(b, 0))
	offEnd := 8 + 4*(n+1)
	if offEnd > int64(len(b)) {
		return nil, corruptf("dict offsets truncated")
	}
	offs := u32View(b[8:offEnd], int(n+1))
	blobStart := align8(offEnd)
	if blobStart > int64(len(b)) {
		return nil, corruptf("dict blob truncated")
	}
	blob := b[blobStart:]
	if offs[0] != 0 || int64(offs[n]) != int64(len(blob)) {
		return nil, corruptf("dict blob bounds")
	}
	names := make([]string, n)
	for i := range names {
		lo, hi := offs[i], offs[i+1]
		if lo > hi {
			return nil, corruptf("dict offsets not monotone")
		}
		names[i] = stringView(blob[lo:hi])
	}
	return names, nil
}

// parseCSR decodes one adjacency direction's flat arrays, aliasing the
// section bytes where the host allows. Structural validation of the
// arrays themselves happens in graph.FromParts; this only sizes and
// slices the section safely.
func parseCSR(b []byte, nV int) (graph.AdjView, error) {
	if len(b) < 16 {
		return graph.AdjView{}, corruptf("csr header truncated")
	}
	nE := int64(u64at(b, 0))
	gotV := int64(u32at(b, 8))
	nRuns := int64(u32at(b, 12))
	if gotV != int64(nV) {
		return graph.AdjView{}, corruptf("csr |V|=%d, dictionary |V|=%d", gotV, nV)
	}
	c := cursor{b: b, pos: 16}
	off := c.u32s(gotV + 1)
	runOff := c.u32s(gotV + 1)
	runStart := c.u32s(nRuns)
	runLabel := c.labels(nRuns)
	edges := c.edges(nE)
	if c.err != nil {
		return graph.AdjView{}, c.err
	}
	return graph.AdjView{
		Edges:    edges,
		Off:      off,
		RunStart: runStart,
		RunLabel: runLabel,
		RunOff:   runOff,
	}, nil
}

// cursor slices aligned arrays out of a section with overflow-safe
// bounds checks.
type cursor struct {
	b   []byte
	pos int64
	err error
}

func (c *cursor) take(n, elem int64) []byte {
	if c.err != nil {
		return nil
	}
	c.pos = align8(c.pos)
	if n < 0 || n > (int64(len(c.b))-c.pos)/elem {
		c.err = corruptf("csr array truncated")
		return nil
	}
	out := c.b[c.pos : c.pos+n*elem]
	c.pos += n * elem
	return out
}

func (c *cursor) u32s(n int64) []uint32 {
	b := c.take(n, 4)
	if c.err != nil {
		return nil
	}
	return u32View(b, int(n))
}

func (c *cursor) labels(n int64) []labelset.Label {
	b := c.take(n, 1)
	if c.err != nil {
		return nil
	}
	return labelView(b, int(n))
}

func (c *cursor) edges(n int64) []graph.Edge {
	b := c.take(n, edgeBytes)
	if c.err != nil {
		return nil
	}
	return edgeView(b, int(n))
}

func u32at(b []byte, i int) uint32 {
	return uint32(b[i]) | uint32(b[i+1])<<8 | uint32(b[i+2])<<16 | uint32(b[i+3])<<24
}

func u64at(b []byte, i int) uint64 {
	return uint64(u32at(b, i)) | uint64(u32at(b, i+4))<<32
}
