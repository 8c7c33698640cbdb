// Package labelset implements edge-label sets as fixed-width bitsets and
// collections of minimal sufficient path label sets (CMS, Definition 2.3 of
// the paper). A CMS is an antichain under ⊆: no member is a subset of
// another. The label universe is capped at 64 labels, which covers the
// paper's datasets (LUBM ≈ 20 properties, YAGO ≈ 40 relations) and lets a
// label set live in a single machine word.
package labelset

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
)

// MaxLabels is the size of the label universe a Set can represent.
const MaxLabels = 64

// Label identifies one edge label. Valid labels are in [0, MaxLabels).
type Label uint8

// Set is a set of labels represented as a bitset: bit i set means label i
// is a member. The zero value is the empty set.
type Set uint64

// New builds a Set from the given labels. Labels ≥ MaxLabels panic: label
// IDs are assigned by the graph dictionary, so an out-of-range label is a
// programming error, not an input error.
func New(labels ...Label) Set {
	var s Set
	for _, l := range labels {
		s = s.Add(l)
	}
	return s
}

// Universe returns the set containing the n smallest labels.
func Universe(n int) Set {
	if n < 0 || n > MaxLabels {
		panic(fmt.Sprintf("labelset: universe size %d out of range [0,%d]", n, MaxLabels))
	}
	if n == MaxLabels {
		return ^Set(0)
	}
	return Set(1)<<uint(n) - 1
}

// Add returns s with label l added.
func (s Set) Add(l Label) Set {
	if l >= MaxLabels {
		panic(fmt.Sprintf("labelset: label %d out of range [0,%d)", l, MaxLabels))
	}
	return s | 1<<uint(l)
}

// Remove returns s with label l removed.
func (s Set) Remove(l Label) Set {
	if l >= MaxLabels {
		panic(fmt.Sprintf("labelset: label %d out of range [0,%d)", l, MaxLabels))
	}
	return s &^ (1 << uint(l))
}

// Contains reports whether label l is a member of s.
func (s Set) Contains(l Label) bool {
	return l < MaxLabels && s&(1<<uint(l)) != 0
}

// SubsetOf reports whether every member of s is a member of t (s ⊆ t).
func (s Set) SubsetOf(t Set) bool { return s&^t == 0 }

// ProperSubsetOf reports whether s ⊂ t.
func (s Set) ProperSubsetOf(t Set) bool { return s != t && s.SubsetOf(t) }

// Union returns s ∪ t.
func (s Set) Union(t Set) Set { return s | t }

// Intersect returns s ∩ t.
func (s Set) Intersect(t Set) Set { return s & t }

// Minus returns s \ t.
func (s Set) Minus(t Set) Set { return s &^ t }

// IsEmpty reports whether s has no members.
func (s Set) IsEmpty() bool { return s == 0 }

// Len returns the number of members of s.
func (s Set) Len() int { return bits.OnesCount64(uint64(s)) }

// Labels returns the members of s in increasing order.
func (s Set) Labels() []Label {
	out := make([]Label, 0, s.Len())
	for v := uint64(s); v != 0; v &= v - 1 {
		out = append(out, Label(bits.TrailingZeros64(v)))
	}
	return out
}

// String renders s as {0,3,17}. It is meant for diagnostics; use a graph
// dictionary to render label names.
func (s Set) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range s.Labels() {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", l)
	}
	b.WriteByte('}')
	return b.String()
}

// CMS is a collection of minimal sufficient path label sets (Definition
// 2.3): an antichain of Sets under ⊆. The zero value is an empty, usable
// CMS. CMS values are not safe for concurrent mutation.
type CMS struct {
	sets []Set
}

// NewCMS builds a CMS from the given sets, inserting each in turn so the
// result is minimal.
func NewCMS(sets ...Set) *CMS {
	c := &CMS{}
	for _, s := range sets {
		c.Insert(s)
	}
	return c
}

// AdoptSets returns a CMS that takes ownership of sets verbatim,
// skipping Insert's per-set subset filtering. The caller asserts that
// sets is already a minimal antichain — the form Sorted() emits and
// the index serialisation writes — and must not mutate the slice
// afterwards. The index boot path decodes millions of CMS values; this
// is its constructor.
func AdoptSets(sets []Set) CMS { return CMS{sets: sets} }

// Insert adds s to the collection, maintaining minimality. It reports
// whether s was added: false means an existing member is a subset of s
// (s is redundant). Members that are proper supersets of s are removed.
// This is the Insert routine of Algorithm 3 (lines 16–24) of the paper.
func (c *CMS) Insert(s Set) bool {
	kept := c.sets[:0]
	for _, m := range c.sets {
		if m.SubsetOf(s) {
			// s is covered by an existing member (possibly equal).
			return false
		}
		if !s.ProperSubsetOf(m) {
			kept = append(kept, m)
		}
	}
	c.sets = append(kept, s)
	return true
}

// Covers reports whether some member of the collection is a subset of L,
// i.e. whether L is a sufficient path label set according to this CMS.
func (c *CMS) Covers(L Set) bool {
	if c == nil {
		return false
	}
	for _, m := range c.sets {
		if m.SubsetOf(L) {
			return true
		}
	}
	return false
}

// HasProperSubset reports whether some member is a proper subset of L.
// CMS-producing BFS expansions use it to discard queue entries that a
// smaller set has superseded since they were enqueued.
func (c *CMS) HasProperSubset(L Set) bool {
	if c == nil {
		return false
	}
	for _, m := range c.sets {
		if m.ProperSubsetOf(L) {
			return true
		}
	}
	return false
}

// Len returns the number of minimal sets in the collection.
func (c *CMS) Len() int {
	if c == nil {
		return 0
	}
	return len(c.sets)
}

// Sets returns the minimal sets in unspecified order. The returned slice
// aliases internal storage and must not be mutated.
func (c *CMS) Sets() []Set {
	if c == nil {
		return nil
	}
	return c.sets
}

// Sorted returns the minimal sets sorted by (size, value), for
// deterministic output and comparisons in tests.
func (c *CMS) Sorted() []Set {
	out := append([]Set(nil), c.Sets()...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Len() != out[j].Len() {
			return out[i].Len() < out[j].Len()
		}
		return out[i] < out[j]
	})
	return out
}

// Equal reports whether two collections contain exactly the same minimal
// sets.
func (c *CMS) Equal(o *CMS) bool {
	a, b := c.Sorted(), o.Sorted()
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// String renders the collection as [{..},{..}] in sorted order.
func (c *CMS) String() string {
	var b strings.Builder
	b.WriteByte('[')
	for i, s := range c.Sorted() {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(s.String())
	}
	b.WriteByte(']')
	return b.String()
}
