package graph

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"
)

// Schema codec: the byte layout of a segment's schema section
// (little-endian, length-prefixed strings):
//
//	|classes| | per class: name, |instances| instance u32s,
//	            |superclasses| superclass names
//	|domains| | (predicate, class) pairs in predicate order
//	|ranges|  | (predicate, class) pairs in predicate order
//
// The section carries no version of its own: it is versioned, framed
// and checksummed by the segment that embeds it (internal/segment), so
// a layout change here is a segment format change.

// ErrCorrupt reports untrusted input (an index payload, segment or WAL
// stream) that is truncated, malformed or hostile. Every decoder in the
// persistence stack wraps it, so callers can classify any bad-bytes
// failure with one errors.Is regardless of which layer noticed first.
var ErrCorrupt = errors.New("graph: corrupt or truncated input")

// WriteSchema serialises s (classes, instances, subclass pairs, domains,
// ranges) — the schema section of a segment.
func WriteSchema(w io.Writer, s *Schema) (int64, error) {
	out := &snapWriter{w: w}
	classes := s.Classes()
	out.u32(uint32(len(classes)))
	for _, c := range classes {
		out.str(c)
		inst := s.Instances(c)
		out.u32(uint32(len(inst)))
		for _, v := range inst {
			out.u32(uint32(v))
		}
		sup := s.SuperClasses(c)
		out.u32(uint32(len(sup)))
		for _, sc := range sup {
			out.str(sc)
		}
	}
	out.u32(uint32(len(s.domains)))
	for _, p := range sortedStrings(s.domains) {
		out.str(p)
		out.str(s.domains[p])
	}
	out.u32(uint32(len(s.ranges)))
	for _, p := range sortedStrings(s.ranges) {
		out.str(p)
		out.str(s.ranges[p])
	}
	return out.n, out.err
}

// ReadSchema deserialises a schema written by WriteSchema from its
// exact section bytes, validating instance vertices against nVerts. It
// is the segment boot path's schema decoder: a flat cursor over b,
// instance lists decoded in bulk, and the per-vertex class lists carved
// out of one backing array
// — tens of thousands of per-vertex appends otherwise dominate opening
// a segment. Every count is validated against the bytes remaining
// before anything is allocated for it.
func ReadSchema(b []byte, nVerts int) (*Schema, error) {
	in := &sectionCursor{b: b}
	s := NewSchema()
	type classRec struct {
		name string
		inst []VertexID
	}
	nClasses := int(in.count(8)) // per class ≥ name len u32 + instance count u32
	var recs []classRec
	for i := 0; i < nClasses && in.err == nil; i++ {
		class := in.str()
		if in.err != nil {
			break
		}
		s.AddClass(class)
		nInst := int(in.count(4))
		inst := make([]VertexID, nInst)
		for j := range inst {
			v := in.u32()
			if in.err == nil && int(v) >= nVerts {
				return nil, fmt.Errorf("%w: schema instance out of range", ErrCorrupt)
			}
			inst[j] = VertexID(v)
		}
		if len(inst) > 0 {
			s.instances[class] = inst
			recs = append(recs, classRec{class, inst})
		}
		nSup := int(in.count(4))
		for j := 0; j < nSup && in.err == nil; j++ {
			s.AddSubClassOf(class, in.str())
		}
	}
	nDom := int(in.count(8))
	for i := 0; i < nDom && in.err == nil; i++ {
		p := in.str()
		s.SetDomain(p, in.str())
	}
	nRan := int(in.count(8))
	for i := 0; i < nRan && in.err == nil; i++ {
		p := in.str()
		s.SetRange(p, in.str())
	}
	if in.err != nil {
		return nil, fmt.Errorf("%w: schema: %v", ErrCorrupt, in.err)
	}
	if in.off != len(in.b) {
		return nil, fmt.Errorf("%w: schema: %d trailing bytes", ErrCorrupt, len(in.b)-in.off)
	}

	// classOf: a counting pass sizes one shared backing array; the fill
	// pass preserves the per-vertex class order AddInstance would have
	// produced (classes in serialised order). Sub-slices are
	// capacity-trimmed so a later AddInstance reallocates instead of
	// clobbering a neighbouring vertex's list.
	cnt := make([]int32, nVerts)
	total := 0
	for _, r := range recs {
		for _, v := range r.inst {
			cnt[v]++
		}
		total += len(r.inst)
	}
	backing := make([]string, total)
	start := make([]int32, nVerts)
	sum := int32(0)
	nWith := 0
	for v, c := range cnt {
		start[v] = sum
		sum += c
		if c > 0 {
			nWith++
		}
	}
	next := append([]int32(nil), start...)
	for _, r := range recs {
		for _, v := range r.inst {
			backing[next[v]] = r.name
			next[v]++
		}
	}
	s.classOf = make(map[VertexID][]string, nWith)
	for v := 0; v < nVerts; v++ {
		if cnt[v] == 0 {
			continue
		}
		lo, hi := start[v], start[v]+cnt[v]
		s.classOf[VertexID(v)] = backing[lo:hi:hi]
	}
	return s, nil
}

// sectionCursor walks a section's bytes with bounds-checked slice
// reads; the first failure sticks in err.
type sectionCursor struct {
	b   []byte
	off int
	err error
}

func (c *sectionCursor) u32() uint32 {
	if c.err != nil {
		return 0
	}
	if len(c.b)-c.off < 4 {
		c.err = fmt.Errorf("%w: section truncated", ErrCorrupt)
		return 0
	}
	v := binary.LittleEndian.Uint32(c.b[c.off:])
	c.off += 4
	return v
}

func (c *sectionCursor) str() string {
	n := int(c.u32())
	if c.err != nil {
		return ""
	}
	if n > len(c.b)-c.off {
		c.err = fmt.Errorf("%w: string past section end", ErrCorrupt)
		return ""
	}
	s := string(c.b[c.off : c.off+n])
	c.off += n
	return s
}

// count reads a u32 element count whose elements occupy at least
// minElemBytes each and rejects counts the remaining bytes cannot
// possibly back.
func (c *sectionCursor) count(minElemBytes int) uint32 {
	n := c.u32()
	if c.err == nil && int64(n)*int64(minElemBytes) > int64(len(c.b)-c.off) {
		c.err = fmt.Errorf("%w: count %d exceeds remaining section", ErrCorrupt, n)
		return 0
	}
	return n
}

// snapWriter writes little-endian words and length-prefixed strings,
// counting bytes; the first failure sticks in err.
type snapWriter struct {
	w   io.Writer
	n   int64
	err error
	buf [4]byte
}

func (s *snapWriter) raw(p []byte) {
	if s.err != nil {
		return
	}
	n, err := s.w.Write(p)
	s.n += int64(n)
	s.err = err
}

func (s *snapWriter) u32(v uint32) {
	binary.LittleEndian.PutUint32(s.buf[:], v)
	s.raw(s.buf[:])
}

func (s *snapWriter) str(v string) {
	s.u32(uint32(len(v)))
	s.raw([]byte(v))
}

func sortedStrings(m map[string]string) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
