package segment

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"lscr/internal/failpoint"
	"lscr/internal/graph"
	lscrcore "lscr/internal/lscr"
)

const (
	segPrefix = "seg-"
	segSuffix = ".lscrseg"
	tmpSuffix = ".tmp"
)

// PathFor returns the canonical segment path for a base sequence
// number. Names sort lexically in seq order (zero-padded hex), so List
// needs no metadata reads.
func PathFor(dir string, baseSeq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s%016x%s", segPrefix, baseSeq, segSuffix))
}

// List returns the sealed segment paths in dir in ascending base-seq
// order. Temp files are ignored.
func List(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
			continue
		}
		seq := strings.TrimSuffix(strings.TrimPrefix(name, segPrefix), segSuffix)
		if _, err := strconv.ParseUint(seq, 16, 64); err != nil {
			continue
		}
		out = append(out, filepath.Join(dir, name))
	}
	sort.Strings(out)
	return out, nil
}

// Write seals a complete segment for g (which must be overlay-free;
// callers compact first) and idx (nil for an index-less engine, else
// freshly built for g) atomically: temp file, fsync, rename, directory
// fsync. indexK and indexSeed record the engine's index-build
// parameters so Open can reconstruct equivalent Options. It returns the
// final path.
func Write(dir string, baseSeq uint64, g *graph.Graph, idx *lscrcore.LocalIndex, indexK int, indexSeed int64) (string, error) {
	tmp, err := WriteTemp(dir, baseSeq, g, idx, indexK, indexSeed)
	if err != nil {
		return "", err
	}
	return Commit(tmp)
}

// WriteTemp writes and fsyncs the full segment image as a temp file in
// dir without making it visible; Commit publishes it. The split exists
// for the compactor, which prepares the image outside the engine's
// locks and publishes it only after the sealing WAL record is durable.
func WriteTemp(dir string, baseSeq uint64, g *graph.Graph, idx *lscrcore.LocalIndex, indexK int, indexSeed int64) (string, error) {
	tmpPath := PathFor(dir, baseSeq) + tmpSuffix
	f, err := os.OpenFile(tmpPath, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return "", err
	}
	if fp := failpoint.Eval(FPSegWrite); fp != nil {
		if fp.Torn > 0 {
			// Crash mid-image: leave a partial temp file behind — exactly
			// the stray Open's removeStrayTemps must sweep.
			f.Write(zeroPad[:min(fp.Torn, len(zeroPad))])
			f.Close()
			return "", fp
		}
		f.Close()
		os.Remove(tmpPath)
		return "", fp
	}
	if err := writeSegment(f, baseSeq, g, idx, indexK, indexSeed); err != nil {
		f.Close()
		os.Remove(tmpPath)
		return "", err
	}
	if fp := failpoint.Eval(FPSegSync); fp != nil {
		f.Close()
		os.Remove(tmpPath)
		return "", fp
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmpPath)
		return "", err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmpPath)
		return "", err
	}
	return tmpPath, nil
}

// Commit renames a WriteTemp file to its final segment name and fsyncs
// the directory, making the seal durable.
func Commit(tmpPath string) (string, error) {
	final := strings.TrimSuffix(tmpPath, tmpSuffix)
	if final == tmpPath {
		return "", fmt.Errorf("segment: %q is not a temp segment", tmpPath)
	}
	if fp := failpoint.Eval(FPSegRename); fp != nil {
		return "", fp
	}
	if err := os.Rename(tmpPath, final); err != nil {
		return "", err
	}
	if err := syncDir(filepath.Dir(final)); err != nil {
		return "", err
	}
	return final, nil
}

// RemoveObsolete deletes sealed segments older than keepPath. Unix
// unlink semantics keep any still-mmap'd older segment readable until
// the mapping is closed.
func RemoveObsolete(dir, keepPath string) error {
	paths, err := List(dir)
	if err != nil {
		return err
	}
	var firstErr error
	for _, p := range paths {
		if p < keepPath {
			if err := os.Remove(p); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	return firstErr
}

func syncDir(dir string) error {
	if fp := failpoint.Eval(FPDirSync); fp != nil {
		return fp
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

func writeSegment(f *os.File, baseSeq uint64, g *graph.Graph, idx *lscrcore.LocalIndex, indexK int, indexSeed int64) error {
	out, in, ok := g.BaseViews()
	if !ok {
		return errors.New("segment: graph carries an uncompacted overlay")
	}
	names, labels := g.VertexNames(), g.LabelNames()

	h := &header{baseSeq: baseSeq, indexK: int64(indexK), indexSeed: indexSeed}
	type section struct {
		id   uint32
		emit func(*segWriter)
	}
	secs := []section{
		{secLabelDict, func(sw *segWriter) { sw.dict(labels) }},
		{secVertexDict, func(sw *segWriter) { sw.dict(names) }},
		{secNameIdx, func(sw *segWriter) { sw.nameIdx(names) }},
		{secCSROut, func(sw *segWriter) { sw.csr(out) }},
		{secCSRIn, func(sw *segWriter) { sw.csr(in) }},
	}
	if idx != nil {
		if idx.Graph() != g {
			return errors.New("segment: index is not bound to the graph being sealed")
		}
		h.flags |= flagHasIndex
		secs = append(secs, section{secIndex, func(sw *segWriter) {
			if _, err := lscrcore.WriteIndexPayload(sw, idx); err != nil && sw.err == nil {
				sw.err = err
			}
		}})
	}

	sw := &segWriter{f: f, w: bufio.NewWriterSize(f, 1<<20), crc: crc32.New(castagnoli)}
	// Zero placeholder for the header+table; the real bytes are patched
	// in once every section's offset, length and CRC are known.
	headerLen := headerSize + tableEntry*len(secs)
	sw.zeros(headerLen)
	for _, s := range secs {
		sw.align8()
		off := sw.n
		sw.crc.Reset()
		s.emit(sw)
		h.sections = append(h.sections, tableSection{
			id:  s.id,
			crc: sw.crc.Sum32(),
			off: uint64(off),
			len: uint64(sw.n - off),
		})
	}
	if sw.err != nil {
		return sw.err
	}
	hdr := encodeHeader(h)
	var foot [footerSize]byte
	binary.LittleEndian.PutUint32(foot[0:4], checksum(hdr))
	copy(foot[8:16], footMagic)
	sw.raw(foot[:])
	if sw.err != nil {
		return sw.err
	}
	if err := sw.w.Flush(); err != nil {
		return err
	}
	_, err := f.WriteAt(hdr, 0)
	return err
}

// segWriter tracks position and the running section CRC. Write tees
// into the checksum, so the index codec can stream through it directly.
type segWriter struct {
	f   *os.File
	w   *bufio.Writer
	crc hash.Hash32
	n   int64
	err error
	buf []byte
}

var _ io.Writer = (*segWriter)(nil)

func (sw *segWriter) Write(p []byte) (int, error) {
	if sw.err != nil {
		return 0, sw.err
	}
	n, err := sw.w.Write(p)
	sw.crc.Write(p[:n])
	sw.n += int64(n)
	sw.err = err
	if err != nil {
		return n, err
	}
	return n, nil
}

func (sw *segWriter) raw(p []byte) { sw.Write(p) }

func (sw *segWriter) u32(v uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	sw.raw(b[:])
}

func (sw *segWriter) u64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	sw.raw(b[:])
}

var zeroPad [4096]byte

func (sw *segWriter) zeros(n int) {
	for n > 0 && sw.err == nil {
		c := min(n, len(zeroPad))
		sw.raw(zeroPad[:c])
		n -= c
	}
}

func (sw *segWriter) align8() { sw.zeros(int(align8(sw.n) - sw.n)) }

// dict writes a string table: count, (count+1) cumulative byte offsets,
// padding, then the concatenated names.
func (sw *segWriter) dict(names []string) {
	sw.u32(uint32(len(names)))
	sw.u32(0)
	cum := uint32(0)
	sw.u32(0)
	for _, nm := range names {
		cum += uint32(len(nm))
		sw.u32(cum)
	}
	sw.align8()
	for _, nm := range names {
		sw.raw([]byte(nm))
	}
}

// nameIdx writes the vertex ids permuted into ascending-name order —
// the boot-side replacement for the name→id hash map. The sort runs at
// seal time (background compaction), never on the boot path.
func (sw *segWriter) nameIdx(names []string) {
	perm := make([]uint32, len(names))
	for i := range perm {
		perm[i] = uint32(i)
	}
	sort.Slice(perm, func(i, j int) bool { return names[perm[i]] < names[perm[j]] })
	sw.u32s(perm)
}

// csr writes one adjacency direction: counts, then the five flat
// arrays, each 8-aligned.
func (sw *segWriter) csr(v graph.AdjView) {
	sw.u64(uint64(len(v.Edges)))
	sw.u32(uint32(len(v.Off) - 1))
	sw.u32(uint32(len(v.RunStart)))
	sw.u32s(v.Off)
	sw.align8()
	sw.u32s(v.RunOff)
	sw.align8()
	sw.u32s(v.RunStart)
	sw.align8()
	buf := sw.chunk()
	for _, l := range v.RunLabel {
		buf = append(buf, byte(l))
		if len(buf) == cap(buf) {
			sw.raw(buf)
			buf = buf[:0]
		}
	}
	sw.raw(buf)
	sw.buf = buf[:0]
	sw.align8()
	sw.edges(v.Edges)
}

func (sw *segWriter) u32s(a []uint32) {
	buf := sw.chunk()
	for _, v := range a {
		buf = binary.LittleEndian.AppendUint32(buf, v)
		if len(buf) >= cap(buf)-4 {
			sw.raw(buf)
			buf = buf[:0]
		}
	}
	sw.raw(buf)
	sw.buf = buf[:0]
}

func (sw *segWriter) edges(es []graph.Edge) {
	buf := sw.chunk()
	for _, e := range es {
		buf = appendEdge(buf, e)
		if len(buf) >= cap(buf)-edgeBytes {
			sw.raw(buf)
			buf = buf[:0]
		}
	}
	sw.raw(buf)
	sw.buf = buf[:0]
}

func (sw *segWriter) chunk() []byte {
	if cap(sw.buf) < 64*1024 {
		sw.buf = make([]byte, 0, 64*1024)
	}
	return sw.buf[:0]
}
