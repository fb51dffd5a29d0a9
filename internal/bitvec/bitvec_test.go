package bitvec

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/race"
)

func TestNewZeroed(t *testing.T) {
	v := New(130)
	if v.Len() != 130 {
		t.Fatalf("Len = %d, want 130", v.Len())
	}
	for i := 0; i < 130; i++ {
		if v.Get(i) {
			t.Fatalf("bit %d set in fresh vector", i)
		}
	}
	if v.PopCount() != 0 {
		t.Fatal("fresh vector not zero")
	}
}

func TestSetGetClear(t *testing.T) {
	v := New(200)
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 199} {
		v.Set(i)
		if !v.Get(i) {
			t.Fatalf("bit %d not set after Set", i)
		}
	}
	if v.PopCount() != 8 {
		t.Fatalf("PopCount = %d, want 8", v.PopCount())
	}
	v.Clear(64)
	if v.Get(64) {
		t.Fatal("bit 64 still set after Clear")
	}
	if v.PopCount() != 7 {
		t.Fatalf("PopCount = %d, want 7", v.PopCount())
	}
}

func TestOutOfRangePanics(t *testing.T) {
	v := New(10)
	for name, fn := range map[string]func(){
		"Get(-1)":  func() { v.Get(-1) },
		"Get(10)":  func() { v.Get(10) },
		"Set(10)":  func() { v.Set(10) },
		"Clear(-)": func() { v.Clear(-1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestLengthMismatchPanics(t *testing.T) {
	a, b := New(10), New(11)
	defer func() {
		if recover() == nil {
			t.Error("AndPopCount with mismatched lengths did not panic")
		}
	}()
	a.AndPopCount(b)
}

func TestAndPopCountMatchesPaperExample(t *testing.T) {
	// Paper Figure 8: tags of γ1 and γ3 share 3 chunk bits.
	g1 := FromIndices(12, 0, 2, 4)
	g3 := FromIndices(12, 0, 2, 4, 6)
	if w := g1.AndPopCount(g3); w != 3 {
		t.Fatalf("edge weight = %d, want 3", w)
	}
	// γ1 and γ5 share 2 bits.
	g5 := FromIndices(12, 0, 4, 6, 8)
	if w := g1.AndPopCount(g5); w != 2 {
		t.Fatalf("edge weight = %d, want 2", w)
	}
}

func TestOrInPlace(t *testing.T) {
	a := FromIndices(10, 1)
	b := FromIndices(10, 2)
	a.OrInPlace(b)
	if got := a.Sparse().String(); got != "0110000000" {
		t.Fatalf("OrInPlace got %s", got)
	}
}

func randomVector(r *rand.Rand, n int) Vector {
	v := New(n)
	for i := 0; i < n; i++ {
		if r.Intn(2) == 1 {
			v.Set(i)
		}
	}
	return v
}

// Property: AndPopCount(a,b) counts the positions set in both and is
// symmetric.
func TestPropertyAndPopCount(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		n := 1 + rr.Intn(300)
		a, b := randomVector(r, n), randomVector(r, n)
		both := 0
		for i := 0; i < n; i++ {
			if a.Get(i) && b.Get(i) {
				both++
			}
		}
		return a.AndPopCount(b) == both && a.AndPopCount(b) == b.AndPopCount(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: popcount(a) + popcount(b) == popcount(a∧b) + popcount(a∨b).
func TestPropertyInclusionExclusion(t *testing.T) {
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		n := 1 + rr.Intn(500)
		a, b := randomVector(rr, n), randomVector(rr, n)
		or := New(n)
		or.OrInPlace(a)
		or.OrInPlace(b)
		return a.PopCount()+b.PopCount() == a.AndPopCount(b)+or.PopCount()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: a tag's String renders bit i as character i, in the paper's
// λ0λ1…λ(r−1) order.
func TestPropertyStringRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		n := rr.Intn(200)
		v := randomVector(rr, n)
		s := v.Sparse().String()
		if len(s) != n {
			return false
		}
		for i := 0; i < n; i++ {
			if (s[i] == '1') != v.Get(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAppendSetBits(t *testing.T) {
	v := FromIndices(130, 0, 5, 63, 64, 77, 129)
	got := v.AppendSetBits(nil)
	want := []int32{0, 5, 63, 64, 77, 129}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	// Appends after existing contents without clobbering them.
	got = FromIndices(8, 2).AppendSetBits([]int32{int32(99)})
	if len(got) != 2 || got[0] != 99 || got[1] != 2 {
		t.Fatalf("append onto prefix: got %v", got)
	}
	if len(New(64).AppendSetBits(nil)) != 0 {
		t.Fatal("zero vector produced set bits")
	}
}

// Property: AppendSetBits lists exactly the set bits, ascending.
func TestPropertyAppendSetBits(t *testing.T) {
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		v := randomVector(rr, rr.Intn(300))
		var want []int32
		for i := 0; i < v.Len(); i++ {
			if v.Get(i) {
				want = append(want, int32(i))
			}
		}
		return slices.Equal(v.AppendSetBits(nil), want)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: a fresh PostingIndex is the exact transpose of the tag matrix —
// row i appears in bit b's list iff bit b is set in vecs[i], every list is
// strictly ascending, and the lists hold one entry per set bit.
func TestPropertyPostings(t *testing.T) {
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		r := 1 + rr.Intn(150)
		vecs := make([]Vector, rr.Intn(40))
		rows := make([][]int32, len(vecs))
		for i := range vecs {
			vecs[i] = randomVector(rr, r)
			rows[i] = vecs[i].AppendSetBits(nil)
		}
		var ix PostingIndex
		flat, _ := ix.Build(r, rows)
		total := 0
		for b := 0; b < r; b++ {
			list := ix.List(int32(b))
			for k, i := range list {
				if !vecs[i].Get(b) {
					return false
				}
				if k > 0 && list[k-1] >= i {
					return false
				}
			}
			total += len(list)
		}
		sum := 0
		for _, v := range vecs {
			sum += v.PopCount()
		}
		return total == sum && len(flat) == sum
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPostingsWidthMismatchPanics(t *testing.T) {
	for _, row := range [][]int32{{3, 8}, {-1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Build(8) of row %v did not panic", row)
				}
			}()
			new(PostingIndex).Build(8, [][]int32{{1}, row})
		}()
	}
}

func TestCountedAddSub(t *testing.T) {
	var c Counted
	InitCounted(&c, New(8), make([]int32, 8))
	a := FromIndices(8, 0, 1, 2).Sparse()
	b := FromIndices(8, 2, 3).Sparse()
	c.Add(a)
	c.Add(b)
	if want := FromIndices(8, 0, 1, 2, 3); !c.Vec().Equal(want) {
		t.Fatalf("vec = %s, want %s", c.Vec().Sparse(), want.Sparse())
	}
	if c.counts[2] != 2 || c.counts[0] != 1 || c.counts[4] != 0 {
		t.Fatal("wrong refcounts")
	}
	c.Sub(a)
	// Bit 2 survives (still held by b); 0 and 1 drop.
	if want := FromIndices(8, 2, 3); !c.Vec().Equal(want) {
		t.Fatalf("vec after sub = %s, want %s", c.Vec().Sparse(), want.Sparse())
	}
	c.Sub(b)
	if c.Vec().PopCount() != 0 {
		t.Fatal("vec not empty after removing all")
	}
}

func TestCountedAddCounted(t *testing.T) {
	var a, b Counted
	InitCounted(&a, New(8), make([]int32, 8))
	InitCounted(&b, New(8), make([]int32, 8))
	a.Add(NewSparse(8, []int32{0, 1}))
	a.Add(NewSparse(8, []int32{1, 2}))
	b.Add(NewSparse(8, []int32{1, 7}))
	a.AddCounted(&b)
	if a.counts[1] != 3 || a.counts[7] != 1 || a.counts[0] != 1 {
		t.Fatal("wrong merged refcounts")
	}
	if want := FromIndices(8, 0, 1, 2, 7); !a.Vec().Equal(want) {
		t.Fatalf("vec = %s, want %s", a.Vec().Sparse(), want.Sparse())
	}
	a.Sub(NewSparse(8, []int32{1}))
	a.Sub(NewSparse(8, []int32{1}))
	if a.counts[1] != 1 || !a.Vec().Get(1) {
		t.Fatal("bit 1 should survive two of three removals")
	}
}

func TestCountedUnderflowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on refcount underflow")
		}
	}()
	var c Counted
	InitCounted(&c, New(8), make([]int32, 8))
	c.Sub(NewSparse(8, []int32{3}))
}

// Property: a Counted fed random adds and valid subs always equals the OR
// of the multiset it currently holds.
func TestPropertyCountedMatchesOR(t *testing.T) {
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		n := 1 + rr.Intn(120)
		var c Counted
		InitCounted(&c, New(n), make([]int32, n))
		var held []Vector
		for step := 0; step < 60; step++ {
			if len(held) > 0 && rr.Intn(3) == 0 {
				k := rr.Intn(len(held))
				c.Sub(held[k].Sparse())
				held = append(held[:k], held[k+1:]...)
			} else {
				v := randomVector(rr, n)
				c.Add(v.Sparse())
				held = append(held, v)
			}
			want := New(n)
			for _, v := range held {
				want.OrInPlace(v)
			}
			if !c.Vec().Equal(want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestOverPanicsOnLengthMismatch: Over takes exactly the words of an n-bit
// vector, and shares them.
func TestOverPanicsOnLengthMismatch(t *testing.T) {
	words := make([]uint64, 2)
	v := Over(100, words)
	v.Set(99)
	if words[1] != 1<<35 {
		t.Fatalf("Over copied its words: %x", words)
	}
	if Over(0, nil).Len() != 0 {
		t.Fatal("zero-width Over")
	}
	for _, tc := range []struct {
		n, words int
	}{{100, 1}, {100, 3}, {64, 2}, {0, 1}, {-1, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Over(%d, %d words) did not panic", tc.n, tc.words)
				}
			}()
			Over(tc.n, make([]uint64, tc.words))
		}()
	}
}

// TestPropertyPostingIndexMatchesReference holds PostingIndex to a
// brute-force per-bit scan: for every bit of the width, the ascending rows
// whose tag sets it, where a bit no row sets reads as an empty list, and
// for every set bit of every row, the later rows that set it too. One index is reused across builds of different widths, with
// densities from empty rows to all ones, so a slot stale from an earlier
// build would surface as a wrong list. The first build stamps every slot
// of the widest width with generation 1; the index then skips to the end
// of the generations, so a sparse build of that width right after the
// wrap meets those stamps again.
func TestPropertyPostingIndexMatchesReference(t *testing.T) {
	var ix PostingIndex
	rr := rand.New(rand.NewSource(11))
	widths := []int{1, 2, 63, 64, 65, 150, 300, 3075}
	const wrapAt = 10 // the trial whose build wraps the generation
	for trial := 0; trial < 60; trial++ {
		r := widths[rr.Intn(len(widths))]
		density := rr.Float64()
		switch {
		case trial == 0:
			r, density = 3075, 1
		case trial == 1:
			ix.gen = math.MaxUint32 - wrapAt + 1
		case trial == wrapAt || trial == wrapAt+1:
			r, density = 3075, 0.01
		case trial%5 == 0:
			density = 1
		}
		vecs := make([]Vector, rr.Intn(40))
		rows := make([][]int32, len(vecs))
		for i := range vecs {
			vecs[i] = New(r)
			for b := 0; b < r; b++ {
				if rr.Float64() < density {
					vecs[i].Set(b)
				}
			}
			rows[i] = vecs[i].AppendSetBits(nil)
		}
		flat, later := ix.Build(r, rows)
		total := 0
		for b := 0; b < r; b++ {
			var want []int32
			for i, v := range vecs {
				if v.Get(b) {
					want = append(want, int32(i))
				}
			}
			total += len(want)
			if got := ix.List(int32(b)); !slices.Equal(got, want) {
				t.Fatalf("trial %d: r=%d bit %d lists %v, want %v", trial, r, b, got, want)
			}
		}
		if len(flat) != total || len(later) != total {
			t.Fatalf("trial %d: r=%d: %d entries and %d spans for %d set bits", trial, r, len(flat), len(later), total)
		}
		x := 0
		for i, row := range rows {
			for _, b := range row {
				var want []int32
				for j := i + 1; j < len(vecs); j++ {
					if vecs[j].Get(int(b)) {
						want = append(want, int32(j))
					}
				}
				if sp := later[x]; !slices.Equal(flat[sp.Lo:sp.Hi], want) {
					t.Fatalf("trial %d: r=%d row %d bit %d: later rows %v, want %v", trial, r, i, b, flat[sp.Lo:sp.Hi], want)
				}
				x++
			}
		}
	}
	if ix.gen > 60 {
		t.Fatalf("generation %d: the stamp never wrapped", ix.gen)
	}
}

// TestAllocPostingIndexWarmBuild gates the zero-alloc steady state of the
// recycled inverted-index build (the ci.sh alloc-gate job runs every
// TestAlloc* with GOGC=off).
func TestAllocPostingIndexWarmBuild(t *testing.T) {
	if race.Enabled {
		t.Skip("race-mode sync.Pool drops Puts by design; the alloc gate runs without -race")
	}
	const r = 300
	rows := make([][]int32, 200)
	rr := rand.New(rand.NewSource(5))
	for i := range rows {
		rows[i] = randomVector(rr, r).AppendSetBits(nil)
	}
	var ix PostingIndex
	ix.Build(r, rows)
	allocs := testing.AllocsPerRun(100, func() {
		ix.Build(r, rows)
	})
	if allocs != 0 {
		t.Fatalf("warm PostingIndex.Build allocates %v objects/op, want 0", allocs)
	}
}

func TestInitCounted(t *testing.T) {
	var c Counted
	vec, counts := New(70), make([]int32, 70)
	InitCounted(&c, vec, counts)
	a := NewSparse(70, []int32{1, 64})
	b := NewSparse(70, []int32{1, 3})
	c.Add(a)
	c.Add(b)
	c.Sub(a)
	if want := FromIndices(70, 1, 3); !c.Vec().Equal(want) {
		t.Fatalf("init-counted view %s, want %s", c.Vec().Sparse(), want.Sparse())
	}
	// c owns the caller's storage: the view and counts are the slices passed in.
	if !vec.Get(3) || counts[1] != 1 || counts[64] != 0 {
		t.Fatal("InitCounted did not adopt the caller-provided storage")
	}
}

func TestInitCountedMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on storage mismatch")
		}
	}()
	var c Counted
	InitCounted(&c, New(70), make([]int32, 60))
}

// Property: every operation of a Sparse vector equals its dense
// counterpart, on random vectors from empty to all bits set.
func TestPropertySparseMatchesDense(t *testing.T) {
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		n := rr.Intn(300)
		a, b := New(n), randomVector(rr, n)
		density := rr.Float64()
		for i := 0; i < n; i++ {
			if rr.Float64() < density {
				a.Set(i)
			}
		}
		s := a.Sparse()
		if s.Len() != n || s.PopCount() != a.PopCount() || len(s.String()) != n {
			return false
		}
		if !s.Dense().Equal(a) || s.AndPopCount(b) != a.AndPopCount(b) {
			return false
		}
		bits := s.Bits()
		for i, x := range a.AppendSetBits(nil) {
			if bits[i] != x {
				return false
			}
		}
		or, want := New(n), New(n)
		or.OrInPlace(b)
		s.OrInto(or)
		want.OrInPlace(a)
		want.OrInPlace(b)
		return or.Equal(want) && NewSparse(n, bits).String() == s.String()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: OrInPlaceNew and OrIntoNew leave v = v ∨ o and list exactly
// the bits of o that v lacked, ascending, after what dst held.
func TestPropertyOrNewListsAddedBits(t *testing.T) {
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		n := rr.Intn(300)
		v, o := randomVector(rr, n), randomVector(rr, n)
		var want []int32
		for i := 0; i < n; i++ {
			if o.Get(i) && !v.Get(i) {
				want = append(want, int32(i))
			}
		}
		or := New(n)
		or.OrInPlace(v)
		or.OrInPlace(o)
		dense, sparse := New(n), New(n)
		dense.OrInPlace(v)
		sparse.OrInPlace(v)
		gotDense := dense.OrInPlaceNew(o, []int32{-1})
		gotSparse := o.Sparse().OrIntoNew(sparse, []int32{-1})
		want = append([]int32{-1}, want...)
		return dense.Equal(or) && sparse.Equal(or) && slices.Equal(gotDense, want) && slices.Equal(gotSparse, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestNewSparseRejectsBadBits(t *testing.T) {
	for _, c := range []struct {
		name string
		n    int
		bits []int32
	}{
		{"unsorted", 8, []int32{3, 1}},
		{"duplicate", 8, []int32{2, 2}},
		{"negative bit", 8, []int32{-1, 2}},
		{"bit at width", 8, []int32{1, 8}},
		{"negative width", -1, nil},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: NewSparse(%d, %v) did not panic", c.name, c.n, c.bits)
				}
			}()
			NewSparse(c.n, c.bits)
		}()
	}
	if s := NewSparse(8, []int32{0, 7}); s.String() != "10000001" {
		t.Fatalf("NewSparse(8, {0,7}) = %s", s)
	}
	if s := NewSparse(0, nil); s.Len() != 0 || s.PopCount() != 0 {
		t.Fatal("empty sparse vector has bits")
	}
}

func TestSparseLengthMismatchPanics(t *testing.T) {
	s := NewSparse(8, []int32{1})
	for name, op := range map[string]func(){
		"OrInto":      func() { s.OrInto(New(9)) },
		"AndPopCount": func() { s.AndPopCount(New(7)) },
		"OrIntoNew":   func() { s.OrIntoNew(New(9), nil) },
		"Counted.Add": func() {
			var c Counted
			InitCounted(&c, New(16), make([]int32, 16))
			c.Add(s)
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s across widths did not panic", name)
				}
			}()
			op()
		}()
	}
}
