package labelset

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSetBasics(t *testing.T) {
	s := New(0, 3, 17)
	if s.Len() != 3 {
		t.Fatalf("Len = %d, want 3", s.Len())
	}
	for _, l := range []Label{0, 3, 17} {
		if !s.Contains(l) {
			t.Errorf("Contains(%d) = false, want true", l)
		}
	}
	for _, l := range []Label{1, 2, 16, 63} {
		if s.Contains(l) {
			t.Errorf("Contains(%d) = true, want false", l)
		}
	}
	if got := s.Remove(3); got.Contains(3) || got.Len() != 2 {
		t.Errorf("Remove(3) = %v", got)
	}
	if got := s.Add(3); got != s {
		t.Errorf("Add of existing changed set: %v != %v", got, s)
	}
}

func TestSetAlgebra(t *testing.T) {
	a, b := New(1, 2, 3), New(3, 4)
	if got := a.Union(b); got != New(1, 2, 3, 4) {
		t.Errorf("Union = %v", got)
	}
	if got := a.Intersect(b); got != New(3) {
		t.Errorf("Intersect = %v", got)
	}
	if got := a.Minus(b); got != New(1, 2) {
		t.Errorf("Minus = %v", got)
	}
	if !New(1).SubsetOf(a) || !a.SubsetOf(a) || a.SubsetOf(b) {
		t.Error("SubsetOf misbehaves")
	}
	if !New(1).ProperSubsetOf(a) || a.ProperSubsetOf(a) {
		t.Error("ProperSubsetOf misbehaves")
	}
	if !Set(0).IsEmpty() || a.IsEmpty() {
		t.Error("IsEmpty misbehaves")
	}
}

func TestUniverse(t *testing.T) {
	for _, n := range []int{0, 1, 7, 63, 64} {
		u := Universe(n)
		if u.Len() != n {
			t.Errorf("Universe(%d).Len() = %d", n, u.Len())
		}
		for i := 0; i < n; i++ {
			if !u.Contains(Label(i)) {
				t.Errorf("Universe(%d) missing %d", n, i)
			}
		}
	}
	mustPanic(t, func() { Universe(65) })
	mustPanic(t, func() { Universe(-1) })
}

func TestLabelsRoundTrip(t *testing.T) {
	s := New(0, 5, 9, 63)
	got := New(s.Labels()...)
	if got != s {
		t.Fatalf("round trip: %v != %v", got, s)
	}
}

func TestOutOfRangePanics(t *testing.T) {
	mustPanic(t, func() { New(64) })
	mustPanic(t, func() { Set(0).Remove(200) })
}

func mustPanic(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	f()
}

func TestSetString(t *testing.T) {
	if got := New(0, 3).String(); got != "{0,3}" {
		t.Errorf("String = %q", got)
	}
	if got := Set(0).String(); got != "{}" {
		t.Errorf("empty String = %q", got)
	}
}

func TestCMSInsertMinimality(t *testing.T) {
	c := NewCMS()
	if !c.Insert(New(1, 2)) {
		t.Fatal("first insert rejected")
	}
	if c.Insert(New(1, 2, 3)) {
		t.Fatal("superset insert accepted")
	}
	if !c.Insert(New(1)) {
		t.Fatal("subset insert rejected")
	}
	// {1,2} must have been evicted by {1}.
	if c.Len() != 1 || c.Sets()[0] != New(1) {
		t.Fatalf("CMS = %v, want [{1}]", c)
	}
	if !c.Insert(New(2, 3)) {
		t.Fatal("incomparable insert rejected")
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
}

func TestCMSInsertEqualSet(t *testing.T) {
	c := NewCMS(New(1, 2))
	if c.Insert(New(1, 2)) {
		t.Fatal("duplicate insert accepted")
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d", c.Len())
	}
}

func TestCMSEmptySetDominatesAll(t *testing.T) {
	c := NewCMS(New(1), New(2, 3))
	c.Insert(Set(0))
	if c.Len() != 1 || !c.Sets()[0].IsEmpty() {
		t.Fatalf("CMS = %v, want [{}]", c)
	}
	if c.Insert(New(5)) {
		t.Fatal("insert over empty-set member accepted")
	}
}

func TestCMSCovers(t *testing.T) {
	c := NewCMS(New(1, 2), New(3))
	cases := []struct {
		L    Set
		want bool
	}{
		{New(1, 2), true},
		{New(1, 2, 5), true},
		{New(3), true},
		{New(1), false},
		{New(2), false},
		{Set(0), false},
		{New(4, 5), false},
	}
	for _, tc := range cases {
		if got := c.Covers(tc.L); got != tc.want {
			t.Errorf("Covers(%v) = %v, want %v", tc.L, got, tc.want)
		}
	}
	var nilC *CMS
	if nilC.Covers(New(1)) {
		t.Error("nil CMS covers something")
	}
	if nilC.Len() != 0 {
		t.Error("nil CMS Len != 0")
	}
}

func TestCMSEqual(t *testing.T) {
	a := NewCMS(New(1), New(2, 3))
	b := NewCMS(New(2, 3), New(1))
	if !a.Equal(b) {
		t.Error("order-insensitive equality failed")
	}
}

func TestCMSString(t *testing.T) {
	c := NewCMS(New(2, 3), New(1))
	if got := c.String(); got != "[{1} {2,3}]" {
		t.Errorf("String = %q", got)
	}
}

// Property: after any insertion sequence, the CMS is an antichain and is
// equivalent (as a covering function on random probes) to the naive "keep
// everything" representation.
func TestCMSAntichainProperty(t *testing.T) {
	prop := func(raw []uint16, probes []uint16) bool {
		c := NewCMS()
		var all []Set
		for _, r := range raw {
			s := Set(r) // sets over labels 0..15
			c.Insert(s)
			all = append(all, s)
		}
		// Antichain invariant.
		ms := c.Sets()
		for i := range ms {
			for j := range ms {
				if i != j && ms[i].SubsetOf(ms[j]) {
					return false
				}
			}
		}
		// Covering equivalence.
		naive := func(L Set) bool {
			for _, s := range all {
				if s.SubsetOf(L) {
					return true
				}
			}
			return false
		}
		for _, p := range probes {
			L := Set(p)
			if c.Covers(L) != naive(L) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: subset relation agrees with element-wise definition.
func TestSubsetOfProperty(t *testing.T) {
	prop := func(a, b uint64) bool {
		sa, sb := Set(a), Set(b)
		want := true
		for _, l := range sa.Labels() {
			if !sb.Contains(l) {
				want = false
				break
			}
		}
		return sa.SubsetOf(sb) == want
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Len agrees with len(Labels) and algebra identities hold.
func TestSetAlgebraProperty(t *testing.T) {
	prop := func(a, b uint64) bool {
		sa, sb := Set(a), Set(b)
		if sa.Len() != len(sa.Labels()) {
			return false
		}
		if sa.Union(sb) != sb.Union(sa) {
			return false
		}
		if sa.Intersect(sb).SubsetOf(sa) == false {
			return false
		}
		if !sa.Minus(sb).SubsetOf(sa) {
			return false
		}
		if sa.Minus(sb).Intersect(sb) != 0 {
			return false
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCMSRandomStress(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	c := NewCMS()
	for i := 0; i < 5000; i++ {
		c.Insert(Set(rng.Uint64() & 0xFFF))
	}
	// With 12 labels and 5000 inserts, the antichain must be small and
	// minimal.
	ms := c.Sets()
	for i := range ms {
		for j := range ms {
			if i != j && ms[i].SubsetOf(ms[j]) {
				t.Fatalf("not an antichain: %v ⊆ %v", ms[i], ms[j])
			}
		}
	}
}

func BenchmarkCMSInsert(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	vals := make([]Set, 1024)
	for i := range vals {
		vals[i] = Set(rng.Uint64() & 0xFFFF)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := NewCMS()
		for _, v := range vals {
			c.Insert(v)
		}
	}
}
