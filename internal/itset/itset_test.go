package itset

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestEmptySet(t *testing.T) {
	var s Set
	if !s.IsEmpty() || s.Count() != 0 || len(s.runs) != 0 {
		t.Fatal("zero Set is not empty")
	}
	if s.Contains(0) {
		t.Fatal("empty set contains 0")
	}
	if s.String() != "∅" {
		t.Fatalf("empty String = %q", s.String())
	}
}

func TestIntervalAndSingle(t *testing.T) {
	s := Interval(3, 7)
	if s.Count() != 4 {
		t.Fatalf("Count = %d, want 4", s.Count())
	}
	if !s.Contains(3) || !s.Contains(6) || s.Contains(7) || s.Contains(2) {
		t.Fatal("Interval membership wrong")
	}
	if Single(5).Count() != 1 || !Single(5).Contains(5) {
		t.Fatal("Single wrong")
	}
	if !Interval(5, 5).IsEmpty() {
		t.Fatal("degenerate interval not empty")
	}
}

func TestFromRunsNormalizes(t *testing.T) {
	s := FromRuns(Run{5, 10}, Run{0, 3}, Run{8, 12}, Run{3, 5}, Run{20, 20})
	// 0-3, 3-5, 5-10, 8-12 coalesce to [0,12)
	if len(s.runs) != 1 {
		t.Fatalf("runs = %d (%s), want 1", len(s.runs), s)
	}
	if s.Count() != 12 {
		t.Fatalf("Count = %d, want 12", s.Count())
	}
}

func TestAppendCoalesces(t *testing.T) {
	var s Set
	s.Append(0, 5)
	s.Append(5, 10) // adjacent: coalesce
	if len(s.runs) != 1 {
		t.Fatalf("adjacent appends not coalesced: %s", s)
	}
	s.Append(20, 25)
	if len(s.runs) != 2 {
		t.Fatalf("gap append wrong: %s", s)
	}
	s.Append(12, 15) // out of order relative to [20,25)
	if !s.Contains(13) || s.Contains(16) {
		t.Fatalf("out-of-order append wrong: %s", s)
	}
	s.Append(3, 3) // empty: no-op
	if s.Count() != 18 {
		t.Fatalf("Count = %d, want 18", s.Count())
	}
}

func TestMinMax(t *testing.T) {
	s := FromRuns(Run{10, 12}, Run{3, 5})
	if s.Min() != 3 || s.Max() != 11 {
		t.Fatalf("Min/Max = %d/%d", s.Min(), s.Max())
	}
}

func TestMinPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Min of empty set did not panic")
		}
	}()
	Set{}.Min()
}

// TestFromSortedRuns checks that canonical runs are taken as they are and
// that an empty, overlapping, touching or out-of-order run panics.
func TestFromSortedRuns(t *testing.T) {
	runs := []Run{{1, 3}, {5, 7}, {9, 10}}
	if s := FromSortedRuns(runs); !s.Equal(FromRuns(runs...)) || s.Count() != 5 {
		t.Fatalf("FromSortedRuns(%v) = %v", runs, s)
	}
	if !FromSortedRuns(nil).IsEmpty() {
		t.Fatal("FromSortedRuns(nil) is not empty")
	}
	for _, bad := range [][]Run{
		{{3, 3}},
		{{1, 4}, {3, 6}},
		{{1, 3}, {3, 6}},
		{{5, 7}, {1, 3}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("FromSortedRuns(%v) did not panic", bad)
				}
			}()
			FromSortedRuns(bad)
		}()
	}
}

func TestForEachOrderAndEarlyStop(t *testing.T) {
	s := FromRuns(Run{5, 7}, Run{1, 3})
	var got []int64
	s.ForEach(func(i int64) bool {
		got = append(got, i)
		return true
	})
	want := []int64{1, 2, 5, 6}
	if len(got) != 4 {
		t.Fatalf("ForEach got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ForEach got %v, want %v", got, want)
		}
	}
	var count int
	s.ForEach(func(i int64) bool {
		count++
		return count < 2
	})
	if count != 2 {
		t.Fatalf("early stop walked %d", count)
	}
}

func TestUnionIntersectDifference(t *testing.T) {
	a := FromRuns(Run{0, 10}, Run{20, 30})
	b := FromRuns(Run{5, 25})
	u := a.Union(b)
	if u.Count() != 30 || len(u.runs) != 1 {
		t.Fatalf("Union = %s", u)
	}
	x := a.Intersect(b)
	if x.Count() != 10 { // [5,10) + [20,25)
		t.Fatalf("Intersect = %s", x)
	}
	if !a.Intersect(Set{}).IsEmpty() {
		t.Fatal("a ∩ ∅ not empty")
	}
}

func TestSplitAt(t *testing.T) {
	s := FromRuns(Run{0, 5}, Run{10, 15})
	first, rest := s.SplitAt(7)
	if first.Count() != 7 || rest.Count() != 3 {
		t.Fatalf("SplitAt counts %d/%d", first.Count(), rest.Count())
	}
	if !first.Contains(11) || first.Contains(12) {
		t.Fatalf("SplitAt boundary wrong: %s", first)
	}
	f0, r0 := s.SplitAt(0)
	if !f0.IsEmpty() || r0.Count() != 10 {
		t.Fatal("SplitAt(0) wrong")
	}
	fAll, rAll := s.SplitAt(100)
	if fAll.Count() != 10 || !rAll.IsEmpty() {
		t.Fatal("SplitAt(>count) wrong")
	}
}

func TestCloneIndependence(t *testing.T) {
	s := Interval(0, 5)
	c := s.Clone()
	c.Append(10, 12)
	if s.Count() != 5 {
		t.Fatal("Clone aliases original")
	}
	if !s.Equal(s.Clone()) {
		t.Fatal("clone not Equal")
	}
	if s.Equal(c) {
		t.Fatal("distinct sets Equal")
	}
}

func randomSet(r *rand.Rand) Set {
	var s Set
	n := r.Intn(8)
	for i := 0; i < n; i++ {
		start := int64(r.Intn(100))
		s = s.Union(Interval(start, start+int64(r.Intn(20))))
	}
	return s
}

func sameMembership(s Set, member func(int64) bool) bool {
	for i := int64(0); i < 130; i++ {
		if s.Contains(i) != member(i) {
			return false
		}
	}
	return true
}

// Property: set algebra matches pointwise membership.
func TestPropertySetAlgebra(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randomSet(r), randomSet(r)
		u, x := a.Union(b), a.Intersect(b)
		return sameMembership(u, func(i int64) bool { return a.Contains(i) || b.Contains(i) }) &&
			sameMembership(x, func(i int64) bool { return a.Contains(i) && b.Contains(i) })
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: SplitAt partitions exactly — counts add up, parts are disjoint,
// union restores the set, and every element of first < every element of rest.
func TestPropertySplitPartitions(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		s := randomSet(r)
		n := int64(nRaw)
		first, rest := s.SplitAt(n)
		if first.Count()+rest.Count() != s.Count() {
			return false
		}
		if !first.Intersect(rest).IsEmpty() {
			return false
		}
		if !first.Union(rest).Equal(s) {
			return false
		}
		if !first.IsEmpty() && !rest.IsEmpty() && first.Max() >= rest.Min() {
			return false
		}
		wantFirst := n
		if c := s.Count(); c < n {
			wantFirst = c
		}
		return first.Count() == wantFirst
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Count equals the number of indices ForEach visits, in strictly
// increasing order.
func TestPropertyForEachConsistent(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s := randomSet(r)
		var n int64
		last := int64(-1)
		ok := true
		s.ForEach(func(i int64) bool {
			if i <= last {
				ok = false
				return false
			}
			last = i
			n++
			return true
		})
		return ok && n == s.Count()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
