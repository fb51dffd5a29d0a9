package itset

import "testing"

// FuzzSetAlgebra feeds arbitrary run boundaries through the set algebra and
// checks pointwise consistency. Run with `go test -fuzz=FuzzSetAlgebra`;
// the seed corpus runs as a normal test.
func FuzzSetAlgebra(f *testing.F) {
	f.Add(int64(0), int64(10), int64(5), int64(15), int64(7))
	f.Add(int64(3), int64(3), int64(0), int64(100), int64(0))
	f.Add(int64(-5), int64(5), int64(-10), int64(0), int64(2))
	f.Fuzz(func(t *testing.T, a1, a2, b1, b2, n int64) {
		clamp := func(v int64) int64 {
			if v < -1000 {
				return -1000
			}
			if v > 1000 {
				return 1000
			}
			return v
		}
		a1, a2, b1, b2 = clamp(a1), clamp(a2), clamp(b1), clamp(b2)
		a := Interval(a1, a2)
		b := Interval(b1, b2)
		u := a.Union(b)
		x := a.Intersect(b)
		for i := int64(-1001); i <= 1001; i += 7 {
			inA, inB := a.Contains(i), b.Contains(i)
			if u.Contains(i) != (inA || inB) {
				t.Fatalf("union wrong at %d", i)
			}
			if x.Contains(i) != (inA && inB) {
				t.Fatalf("intersect wrong at %d", i)
			}
		}
		if n < 0 {
			n = -n
		}
		first, rest := u.SplitAt(n % (u.Count() + 2))
		if first.Count()+rest.Count() != u.Count() {
			t.Fatal("split loses elements")
		}
		if !first.Union(rest).Equal(u) {
			t.Fatal("split does not restore")
		}
	})
}

// FuzzShift checks that shifting preserves counts and membership.
func FuzzShift(f *testing.F) {
	f.Add(int64(0), int64(50), int64(13))
	f.Add(int64(10), int64(20), int64(-7))
	f.Fuzz(func(t *testing.T, lo, hi, delta int64) {
		if lo < -1000 || hi > 1000 || hi < lo || delta < -10000 || delta > 10000 {
			t.Skip()
		}
		s := Interval(lo, hi)
		sh := s.Shift(delta)
		if sh.Count() != s.Count() {
			t.Fatal("shift changed count")
		}
		s.ForEach(func(i int64) bool {
			if !sh.Contains(i + delta) {
				t.Fatalf("shifted set missing %d", i+delta)
			}
			return true
		})
	})
}
