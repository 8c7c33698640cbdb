package lscr

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"unsafe"

	"lscr/internal/graph"
	"lscr/internal/labelset"
)

// Local-index persistence. The paper stores its indexes on disk (§6
// "Settings"); this file implements a compact little-endian binary
// payload, which the segment layer (internal/segment) embeds as its
// checksummed index section:
//
//	|V| | k
//	landmarks [k]u32 | af [|V|]u32
//	per landmark: II count, (vertex u32, cms len u32, sets [..]u64)
//	              EIT count, (labelset u64, count u32, vertices [..]u32)
//	D offsets [k+1]u32 | D entries [nnz](landmark index u32, count i32)
//
// The payload carries no magic or checksum of its own: the segment's
// magic versions it and the section table checksums it, so any layout
// change here is a segment format change (bump the segment magic;
// TestSegmentFormatFrozen pins the bytes). Readers reject truncated
// input, corrupt payloads and indexes built for a different graph
// size. Only a fresh index is sealed — one built for an overlay-free
// graph, never maintained — so the payload needs no dirty flags and
// its indexed range is the graph's |V|; WriteIndexPayload refuses
// anything else (ErrIndexNotSealed). Every field is a whole number of
// 4-byte words, so every field sits at a 4-aligned offset.
//
// D is stored as compressed sparse rows: row i's entries are
// entries[offsets[i]:offsets[i+1]], sorted by landmark index with zero
// counts left out, and the entries run to the end of the payload, so
// nnz = offsets[k] is implied by the payload length. The boot path
// adopts the entry array as a read-only view straight over the mmap'd
// section instead of copying it out.
//
// Three layout properties are load-bearing for the boot path:
//
//   - II entries are written in ascending vertex order and EIT entries
//     in ascending label-set order, so the reader materialises the
//     index's sorted enumeration arrays (iiSorted/eitSorted) straight
//     off the stream instead of re-sorting, and rejects out-of-order
//     input as corrupt.
//   - each CMS is written as its Sorted() antichain, so the reader
//     adopts the decoded sets verbatim (labelset.AdoptSets) instead of
//     re-running Insert's subset filtering per set.
//   - D rows are validated, not re-sorted: non-monotone offsets,
//     offsets[k] ≠ nnz, a landmark index ≥ k, unsorted or duplicate
//     columns and a non-positive count are all ErrIndexCorrupt.
//
// Every count in the payload is untrusted: the decoder works over the
// full payload bytes, so each count is validated against the bytes
// remaining before anything is allocated for it — a hostile length
// prefix fails with ErrIndexCorrupt, never by allocating what the
// prefix promises.

// Encoding errors.
var (
	// ErrIndexCorrupt reports a truncated, malformed or hostile index
	// payload. It wraps graph.ErrCorrupt so callers can classify any
	// persistence-stack corruption with one errors.Is.
	ErrIndexCorrupt  = fmt.Errorf("lscr: local-index payload corrupt: %w", graph.ErrCorrupt)
	ErrIndexMismatch = errors.New("lscr: local index was built for a different graph")
	// ErrIndexNotSealed reports an index WriteIndexPayload cannot seal:
	// one maintained through mutations (its graph has an overlay, it has
	// dirty landmarks, or it covers fewer vertices than its graph)
	// rather than built fresh.
	ErrIndexNotSealed = errors.New("lscr: only a freshly built index can be sealed")

	errPayloadEnd = fmt.Errorf("lscr: read past payload end: %w", ErrIndexCorrupt)
)

// hostLittleEndian mirrors the segment layer's aliasing gate: bulk
// moves between the on-disk little-endian arrays and in-memory []int32
// are plain copies only when the host byte order matches the format's.
var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// WriteIndexPayload serialises the index payload — the segment layer's
// index section, whose framing and checksum live in the section table.
// It refuses (ErrIndexNotSealed) an index maintained through mutations:
// the payload has no room for dirty flags, so a reopened store would
// trust stale entries.
func WriteIndexPayload(w io.Writer, idx *LocalIndex) (int64, error) {
	if idx.g.HasOverlay() || idx.DirtyLandmarks() > 0 || len(idx.af) != idx.g.NumVertices() {
		return 0, ErrIndexNotSealed
	}
	bw := bufio.NewWriter(w)
	cw := &countWriter{w: bw}
	put32 := func(v uint32) { cw.write(binary.LittleEndian.AppendUint32(cw.buf[:0], v)) }
	put64 := func(v uint64) { cw.write(binary.LittleEndian.AppendUint64(cw.buf[:0], v)) }

	put32(uint32(len(idx.af)))
	put32(uint32(len(idx.landmarks)))
	for _, u := range idx.landmarks {
		put32(uint32(u))
	}
	for _, a := range idx.af {
		put32(uint32(a))
	}
	// The stored entry arrays are already in ascending key order — the
	// exact order the format mandates — so the writer is a straight walk.
	for li := range idx.landmarks {
		ii := idx.iiSorted[li]
		put32(uint32(len(ii)))
		for _, e := range ii {
			put32(uint32(e.v))
			sets := e.cms.Sorted()
			put32(uint32(len(sets)))
			for _, s := range sets {
				put64(uint64(s))
			}
		}
		eit := idx.eitSorted[li]
		put32(uint32(len(eit)))
		for _, e := range eit {
			put64(uint64(e.key))
			put32(uint32(len(e.ws)))
			for _, w := range e.ws {
				put32(uint32(w))
			}
		}
	}
	var off uint32
	put32(off)
	for _, row := range idx.drows {
		off += uint32(len(row))
		put32(off)
	}
	// Each row's entries go out as one bulk move: dEntry's in-memory
	// layout is the on-disk (u32, i32) pair on a little-endian host.
	var rowBuf []byte
	for _, row := range idx.drows {
		if len(row) == 0 {
			continue
		}
		if hostLittleEndian {
			cw.write(unsafe.Slice((*byte)(unsafe.Pointer(&row[0])), 8*len(row)))
			continue
		}
		rowBuf = rowBuf[:0]
		for _, e := range row {
			rowBuf = binary.LittleEndian.AppendUint32(rowBuf, e.lm)
			rowBuf = binary.LittleEndian.AppendUint32(rowBuf, uint32(e.n))
		}
		cw.write(rowBuf)
	}
	if cw.err != nil {
		return cw.n, cw.err
	}
	return cw.n, bw.Flush()
}

// ReadIndexPayload deserialises an index payload (as written by
// WriteIndexPayload) and binds it to g. b is the exact payload — the
// segment's checksummed index section, decoded in place off the
// mapping. Integrity checking (magic, checksum) is the segment's
// framing; this decoder guarantees only that it fails with a typed
// error instead of panicking or over-allocating on bad bytes. It is the
// cold-boot hot path: counts validate against the bytes that actually
// back them, CMS antichains are adopted verbatim, the sorted
// enumeration arrays are materialised straight from the payload's
// ascending-key layout and D's entry array is adopted as a view over b
// itself when alignment allows. The returned index may
// therefore alias b, which must stay live and unmodified for the
// index's lifetime — the segment mapping contract.
func ReadIndexPayload(b []byte, g *graph.Graph) (*LocalIndex, error) {
	in := &byteCursor{b: b}

	n := in.u32()
	if in.err == nil && int(n) != g.NumVertices() {
		return nil, fmt.Errorf("%w: index |V|=%d, graph |V|=%d", ErrIndexMismatch, n, g.NumVertices())
	}
	k := in.u32()
	if in.err == nil && k > n {
		return nil, fmt.Errorf("%w: k=%d exceeds indexed |V|", ErrIndexMismatch, k)
	}
	if in.err != nil {
		return nil, in.fail()
	}
	idx := &LocalIndex{
		g:          g,
		isLandmark: make([]bool, n),
		af:         make([]graph.VertexID, n),
		lmIdx:      make([]int32, n),
		iiSorted:   make([][]iiEntry, k),
		eitSorted:  make([][]eitEntry, k),
	}
	for i := range idx.lmIdx {
		idx.lmIdx[i] = -1
	}
	idx.landmarks = make([]graph.VertexID, k)
	for i := range idx.landmarks {
		v := in.u32()
		if in.err != nil {
			return nil, in.fail()
		}
		if v >= n {
			return nil, fmt.Errorf("%w: landmark %d out of range", ErrIndexMismatch, v)
		}
		idx.landmarks[i] = graph.VertexID(v)
		idx.isLandmark[v] = true
		idx.lmIdx[v] = int32(i)
	}
	afBytes := in.bytes(4 * int(n))
	if in.err != nil {
		return nil, in.fail()
	}
	if hostLittleEndian && n > 0 {
		copy(unsafe.Slice((*byte)(unsafe.Pointer(&idx.af[0])), len(afBytes)), afBytes)
	} else {
		for i := range idx.af {
			idx.af[i] = graph.VertexID(binary.LittleEndian.Uint32(afBytes[4*i:]))
		}
	}
	// Region assignments index lmIdx downstream (Rho, maintenance
	// grouping), so every assigned region must actually be a landmark.
	for _, a := range idx.af {
		if a != graph.NoVertex && (uint32(a) >= n || !idx.isLandmark[a]) {
			return nil, fmt.Errorf("%w: region assignment is not a landmark", ErrIndexCorrupt)
		}
	}

	// Arena allocation for the per-entry slices: chunks amortise the
	// roughly one allocation per II/EIT entry a naive decode would pay.
	// Every handed-out sub-slice is capacity-trimmed, so a later append
	// (CMS.Insert during maintenance, EIT growth) reallocates instead of
	// clobbering a neighbouring entry's adopted storage.
	var (
		setArena []labelset.Set
		wsArena  []graph.VertexID
		cmsArena []labelset.CMS
	)
	takeSets := func(n int) []labelset.Set {
		if n > cap(setArena)-len(setArena) {
			setArena = make([]labelset.Set, 0, max(1<<12, n))
		}
		lo := len(setArena)
		setArena = setArena[: lo+n : cap(setArena)]
		return setArena[lo : lo+n : lo+n]
	}
	takeWS := func(n int) []graph.VertexID {
		if n > cap(wsArena)-len(wsArena) {
			wsArena = make([]graph.VertexID, 0, max(1<<12, n))
		}
		lo := len(wsArena)
		wsArena = wsArena[: lo+n : cap(wsArena)]
		return wsArena[lo : lo+n : lo+n]
	}
	adoptCMS := func(sets []labelset.Set) *labelset.CMS {
		if len(cmsArena) == cap(cmsArena) {
			cmsArena = make([]labelset.CMS, 0, 1<<12)
		}
		cmsArena = append(cmsArena, labelset.AdoptSets(sets))
		return &cmsArena[len(cmsArena)-1]
	}

	for li := range idx.landmarks {
		nii := in.count(8) // per entry ≥ vertex u32 + cms len u32
		order := make([]iiEntry, 0, capHint(nii))
		prev := int64(-1)
		for j := uint32(0); j < nii && in.err == nil; j++ {
			v := in.u32()
			if in.err != nil {
				break
			}
			if v >= n || int64(v) <= prev {
				return nil, fmt.Errorf("%w: II vertex out of range or order", ErrIndexCorrupt)
			}
			prev = int64(v)
			ns := in.count(8) // per entry one u64 set
			sets := takeSets(int(ns))
			for x := range sets {
				sets[x] = labelset.Set(in.u64())
			}
			order = append(order, iiEntry{v: graph.VertexID(v), cms: adoptCMS(sets)})
		}
		if in.err != nil {
			return nil, in.fail()
		}
		idx.iiSorted[li] = order

		neit := in.count(12) // per entry ≥ labelset u64 + count u32
		eorder := make([]eitEntry, 0, capHint(neit))
		var prevKey uint64
		for j := uint32(0); j < neit && in.err == nil; j++ {
			key := in.u64()
			if in.err != nil {
				break
			}
			if j > 0 && key <= prevKey {
				return nil, fmt.Errorf("%w: EIT keys out of order", ErrIndexCorrupt)
			}
			prevKey = key
			nw := in.count(4) // per entry one vertex u32
			ws := takeWS(int(nw))
			for x := range ws {
				wv := in.u32()
				if in.err == nil && wv >= n {
					return nil, fmt.Errorf("%w: EIT vertex out of range", ErrIndexCorrupt)
				}
				ws[x] = graph.VertexID(wv)
			}
			eorder = append(eorder, eitEntry{key: labelset.Set(key), ws: ws})
		}
		if in.err != nil {
			return nil, in.fail()
		}
		idx.eitSorted[li] = eorder
	}

	drows, err := readDRows(in, int(k))
	if err != nil {
		return nil, err
	}
	idx.drows = drows
	return idx, nil
}

// readDRows decodes the D section, the payload's tail: k+1 offsets, then
// nnz = offsets[k] entries filling the rest of the payload exactly. The
// entry array is adopted as a read-only view over the payload when the
// host is little-endian and the bytes are 4-aligned (the format
// guarantees the alignment on any 8-aligned input); rows are never
// written after a load — maintenance shares them unchanged — and each
// row is capacity-trimmed besides.
func readDRows(in *byteCursor, k int) ([][]dEntry, error) {
	offRaw := in.bytes(4 * (k + 1))
	if in.err != nil {
		return nil, in.fail()
	}
	rest := len(in.b) - in.off
	if rest%8 != 0 {
		return nil, fmt.Errorf("%w: D entries are %d bytes, not whole entries", ErrIndexCorrupt, rest)
	}
	nnz := rest / 8
	offs := make([]uint32, k+1)
	for i := range offs {
		offs[i] = binary.LittleEndian.Uint32(offRaw[4*i:])
		if (i == 0 && offs[i] != 0) || (i > 0 && offs[i] < offs[i-1]) {
			return nil, fmt.Errorf("%w: D offsets not monotone at row %d", ErrIndexCorrupt, i)
		}
	}
	if int64(offs[k]) != int64(nnz) {
		return nil, fmt.Errorf("%w: D offsets end at %d, payload holds %d entries", ErrIndexCorrupt, offs[k], nnz)
	}
	raw := in.bytes(8 * nnz)
	var entries []dEntry
	switch {
	case nnz == 0:
	case hostLittleEndian && uintptr(unsafe.Pointer(&raw[0]))%4 == 0:
		entries = unsafe.Slice((*dEntry)(unsafe.Pointer(&raw[0])), nnz)
	default:
		entries = make([]dEntry, nnz)
		for i := range entries {
			entries[i] = dEntry{
				lm: binary.LittleEndian.Uint32(raw[8*i:]),
				n:  int32(binary.LittleEndian.Uint32(raw[8*i+4:])),
			}
		}
	}
	rows := make([][]dEntry, k)
	for i := range rows {
		row := entries[offs[i]:offs[i+1]:offs[i+1]]
		for j, e := range row {
			switch {
			case e.lm >= uint32(k):
				return nil, fmt.Errorf("%w: D row %d names landmark index %d of %d", ErrIndexCorrupt, i, e.lm, k)
			case j > 0 && e.lm <= row[j-1].lm:
				return nil, fmt.Errorf("%w: D row %d columns unsorted or duplicate", ErrIndexCorrupt, i)
			case e.n <= 0:
				return nil, fmt.Errorf("%w: D row %d stores count %d", ErrIndexCorrupt, i, e.n)
			}
		}
		rows[i] = row
	}
	return rows, nil
}

// capHint bounds a map/slice pre-size taken from an untrusted count: a
// hostile prefix buys at most 64Ki pre-allocated slots; real data past
// that grows incrementally as bytes actually arrive.
func capHint(n uint32) int { return int(min(n, 1<<16)) }

// byteCursor walks the payload with bounds-checked plain slice reads.
// Every read validates against the bytes actually present, so a hostile
// length prefix can never cause an allocation larger than the input
// that backs it; the first failure sticks in err.
type byteCursor struct {
	b   []byte
	off int
	err error
}

func (c *byteCursor) fail() error {
	if errors.Is(c.err, graph.ErrCorrupt) {
		return c.err
	}
	return fmt.Errorf("%w: %v", ErrIndexCorrupt, c.err)
}

func (c *byteCursor) u32() uint32 {
	if c.err != nil {
		return 0
	}
	if len(c.b)-c.off < 4 {
		c.err = errPayloadEnd
		return 0
	}
	v := binary.LittleEndian.Uint32(c.b[c.off:])
	c.off += 4
	return v
}

func (c *byteCursor) u64() uint64 {
	if c.err != nil {
		return 0
	}
	if len(c.b)-c.off < 8 {
		c.err = errPayloadEnd
		return 0
	}
	v := binary.LittleEndian.Uint64(c.b[c.off:])
	c.off += 8
	return v
}

// bytes returns the next n payload bytes without copying; the slice
// aliases the input and is only valid while it is.
func (c *byteCursor) bytes(n int) []byte {
	if c.err != nil {
		return nil
	}
	if n < 0 || len(c.b)-c.off < n {
		c.err = errPayloadEnd
		return nil
	}
	s := c.b[c.off : c.off+n]
	c.off += n
	return s
}

// count reads a u32 element count whose elements occupy at least
// minElemBytes each and rejects counts the remaining bytes cannot
// possibly back.
func (c *byteCursor) count(minElemBytes int) uint32 {
	n := c.u32()
	if c.err == nil && int64(n)*int64(minElemBytes) > int64(len(c.b)-c.off) {
		c.err = fmt.Errorf("%w: count %d exceeds remaining payload", ErrIndexCorrupt, n)
		return 0
	}
	return n
}

// countWriter tracks bytes written and the first error.
type countWriter struct {
	w   io.Writer
	n   int64
	err error
	buf [8]byte
}

func (c *countWriter) write(p []byte) {
	if c.err != nil {
		return
	}
	n, err := c.w.Write(p)
	c.n += int64(n)
	c.err = err
}
