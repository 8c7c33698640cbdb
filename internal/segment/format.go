// Package segment is the persistence subsystem: immutable on-disk
// segments holding a complete engine state (base CSR both directions,
// label-run index, string dictionaries and the local index) as aligned
// little-endian flat arrays, plus a checksummed
// write-ahead log (WAL) that makes mutation batches durable between
// segment seals.
//
// A segment is written atomically (temp file + fsync + rename + dir
// fsync) and opened via mmap: the graph arrays and dictionary strings
// alias the mapping directly (see alias.go), so opening a segment costs
// one checksum pass and the dictionary-map rebuild instead of a full
// parse + index build. Boot-time recovery = open the newest segment
// (state at its base sequence number) and replay the WAL tail through
// the engine's normal commit path.
//
// # Segment layout
//
//	header    magic "LSCRSEG4" | baseSeq u64 | indexK i64 | indexSeed i64
//	          flags u32 | sectionCount u32
//	table     sectionCount × (id u32, crc32 u32, off u64, len u64)
//	sections  8-byte aligned, zero-padded between
//	footer    crc32(header+table) u32 | reserved u32 | magic "LSCRSEGF"
//
// Section payloads (ids below): the label and vertex dictionaries are
// offset+blob string tables; the two CSR sections hold the five flat
// arrays of one adjacency direction; the index section is the
// local-index payload (lscr.WriteIndexPayload), which stores D as
// compressed sparse rows. Only a freshly built index is sealed: the
// payload has no dirty flags and covers exactly the graph's vertices.
// RDFS class facts need no section of their own: they are
// rdf:type/rdfs:subClassOf edges in the CSR sections.
// The index payload carries no version of its own: the segment magic
// versions the whole file, so a layout change in any section means
// bumping segMagic (TestSegmentFormatFrozen pins the bytes).
// Every section is individually CRC32'd in the table, and the footer
// CRC covers the header and table themselves, so a truncated or
// bit-flipped file fails closed before any array is trusted.
// Structural validation on top of the checksums (graph.AdjView.Validate
// and the index payload's budget checks) makes Open safe on hostile
// bytes, not just on torn writes.
package segment

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"slices"
	"sort"

	"lscr/internal/graph"
)

// File-format constants.
const (
	segMagic    = "LSCRSEG4"
	footMagic   = "LSCRSEGF"
	headerSize  = 40 // magic 8 + baseSeq 8 + indexK 8 + indexSeed 8 + flags 4 + count 4
	tableEntry  = 24 // id 4 + crc 4 + off 8 + len 8
	footerSize  = 16 // crc 4 + reserved 4 + magic 8
	maxSections = 16

	flagHasIndex = 1 << 0
)

// retiredMagics are earlier formats: LSCRSEG1 stored D as a dense k×k
// matrix, LSCRSEG2 carried an RDFS schema section (id 5) and LSCRSEG3's
// index payload carried a flags word, separate view and indexed vertex
// counts and a dirty-landmark bitmap. They are refused with a message
// naming them, not converted: a store is re-created from its triples.
var retiredMagics = []string{"LSCRSEG1", "LSCRSEG2", "LSCRSEG3"}

// Section ids.
const (
	secLabelDict  uint32 = 1
	secVertexDict uint32 = 2
	secCSROut     uint32 = 3
	secCSRIn      uint32 = 4
	// Id 5 held the retired RDFS schema section; it is not reused.
	secIndex uint32 = 6
	// secNameIdx holds the vertex ids permuted into ascending-name
	// order: Vertex() binary-searches it over the mmap'd dictionary, so
	// opening a segment never builds a name→id hash map.
	secNameIdx uint32 = 7
)

// castagnoli is the CRC-32C table behind every segment and WAL
// checksum. The Castagnoli polynomial has a dedicated instruction on
// amd64 (SSE4.2) and arm64 (ARMv8 CRC), so the whole-file integrity
// pass a boot performs runs at memory speed instead of table-lookup
// speed — it is the dominant honest cost of opening a segment.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func checksum(b []byte) uint32 { return crc32.Checksum(b, castagnoli) }

// ErrCorrupt re-exports the persistence stack's corruption sentinel:
// every malformed-segment and malformed-WAL error wraps it.
var ErrCorrupt = graph.ErrCorrupt

// ErrNoSegment reports a data directory with no sealed segment.
var ErrNoSegment = errors.New("segment: no segment in directory")

func corruptf(format string, args ...any) error {
	return fmt.Errorf("segment: %w: "+format, append([]any{ErrCorrupt}, args...)...)
}

// header is the decoded fixed header plus section table.
type header struct {
	baseSeq   uint64
	indexK    int64
	indexSeed int64
	flags     uint32
	sections  []tableSection
}

type tableSection struct {
	id  uint32
	crc uint32
	off uint64
	len uint64
}

func (h *header) section(id uint32) (tableSection, bool) {
	for _, s := range h.sections {
		if s.id == id {
			return s, true
		}
	}
	return tableSection{}, false
}

// encodeHeader renders the fixed header and section table.
func encodeHeader(h *header) []byte {
	b := make([]byte, headerSize+tableEntry*len(h.sections))
	copy(b[0:8], segMagic)
	binary.LittleEndian.PutUint64(b[8:16], h.baseSeq)
	binary.LittleEndian.PutUint64(b[16:24], uint64(h.indexK))
	binary.LittleEndian.PutUint64(b[24:32], uint64(h.indexSeed))
	binary.LittleEndian.PutUint32(b[32:36], h.flags)
	binary.LittleEndian.PutUint32(b[36:40], uint32(len(h.sections)))
	for i, s := range h.sections {
		e := b[headerSize+i*tableEntry:]
		binary.LittleEndian.PutUint32(e[0:4], s.id)
		binary.LittleEndian.PutUint32(e[4:8], s.crc)
		binary.LittleEndian.PutUint64(e[8:16], s.off)
		binary.LittleEndian.PutUint64(e[16:24], s.len)
	}
	return b
}

// parseHeader validates the framing of a whole segment image — magic,
// footer, header CRC, section-table bounds, per-section CRCs — and
// returns the decoded header. After it succeeds every table entry
// denotes an in-bounds, checksum-verified byte range of data.
func parseHeader(data []byte) (*header, error) {
	if len(data) < headerSize+footerSize {
		return nil, corruptf("file too small (%d bytes)", len(data))
	}
	if magic := string(data[0:8]); magic != segMagic {
		if slices.Contains(retiredMagics, magic) {
			return nil, corruptf("segment format %s is no longer readable; re-create the store", magic)
		}
		return nil, corruptf("bad magic")
	}
	foot := data[len(data)-footerSize:]
	if string(foot[8:16]) != footMagic {
		return nil, corruptf("bad footer magic")
	}
	count := binary.LittleEndian.Uint32(data[36:40])
	if count > maxSections {
		return nil, corruptf("section count %d", count)
	}
	headerLen := headerSize + tableEntry*int(count)
	if headerLen+footerSize > len(data) {
		return nil, corruptf("truncated section table")
	}
	if binary.LittleEndian.Uint32(foot[0:4]) != checksum(data[:headerLen]) {
		return nil, corruptf("header checksum mismatch")
	}
	h := &header{
		baseSeq:   binary.LittleEndian.Uint64(data[8:16]),
		indexK:    int64(binary.LittleEndian.Uint64(data[16:24])),
		indexSeed: int64(binary.LittleEndian.Uint64(data[24:32])),
		flags:     binary.LittleEndian.Uint32(data[32:36]),
		sections:  make([]tableSection, count),
	}
	body := uint64(len(data) - footerSize)
	seen := make(map[uint32]bool, count)
	for i := range h.sections {
		e := data[headerSize+i*tableEntry:]
		s := tableSection{
			id:  binary.LittleEndian.Uint32(e[0:4]),
			crc: binary.LittleEndian.Uint32(e[4:8]),
			off: binary.LittleEndian.Uint64(e[8:16]),
			len: binary.LittleEndian.Uint64(e[16:24]),
		}
		if seen[s.id] {
			return nil, corruptf("duplicate section %d", s.id)
		}
		seen[s.id] = true
		if s.off < uint64(headerLen) || s.off > body || s.len > body-s.off {
			return nil, corruptf("section %d out of bounds", s.id)
		}
		if checksum(data[s.off:s.off+s.len]) != s.crc {
			return nil, corruptf("section %d checksum mismatch", s.id)
		}
		h.sections[i] = s
	}
	// Alignment padding between sections and the footer's reserved word
	// are the only bytes no checksum covers; require them zero (the
	// writer emits nothing else there) so that no byte of the file can
	// flip undetected.
	order := make([]tableSection, len(h.sections))
	copy(order, h.sections)
	sort.Slice(order, func(i, j int) bool { return order[i].off < order[j].off })
	pos := uint64(headerLen)
	for _, s := range order {
		if s.off < pos {
			return nil, corruptf("section %d overlaps its predecessor", s.id)
		}
		if !allZero(data[pos:s.off]) {
			return nil, corruptf("nonzero padding before section %d", s.id)
		}
		pos = s.off + s.len
	}
	if !allZero(data[pos:body]) || !allZero(foot[4:8]) {
		return nil, corruptf("nonzero padding after sections")
	}
	return h, nil
}

func allZero(b []byte) bool {
	for _, v := range b {
		if v != 0 {
			return false
		}
	}
	return true
}

// sectionBytes returns the verified byte range of section id, or an
// error naming it when required is set and the section is absent.
func sectionBytes(data []byte, h *header, id uint32) ([]byte, error) {
	s, ok := h.section(id)
	if !ok {
		return nil, corruptf("missing section %d", id)
	}
	return data[s.off : s.off+s.len : s.off+s.len], nil
}

func align8(n int64) int64 { return (n + 7) &^ 7 }
