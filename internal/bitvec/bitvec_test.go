package bitvec

import (
	"math/rand"
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
	if !v.IsZero() {
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

func TestIndices(t *testing.T) {
	v := FromIndices(100, 3, 64, 99)
	got := v.Indices()
	want := []int{3, 64, 99}
	if len(got) != len(want) {
		t.Fatalf("Indices = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Indices = %v, want %v", got, want)
		}
	}
}

func TestKeyGrouping(t *testing.T) {
	a := FromIndices(128, 1, 127)
	b := FromIndices(128, 1, 127)
	c := FromIndices(128, 1, 126)
	if a.Key() != b.Key() {
		t.Fatal("equal vectors have different keys")
	}
	if a.Key() == c.Key() {
		t.Fatal("different vectors share a key")
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

// Property: AppendSetBits matches Indices.
func TestPropertyAppendSetBits(t *testing.T) {
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		v := randomVector(rr, rr.Intn(300))
		got := v.AppendSetBits(nil)
		want := v.Indices()
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if int(got[i]) != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Postings is the exact transpose of the tag matrix — row i
// appears in posting list b iff bit b is set in vecs[i], and every list is
// strictly ascending.
func TestPropertyPostings(t *testing.T) {
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		r := 1 + rr.Intn(150)
		vecs := make([]Vector, rr.Intn(40))
		for i := range vecs {
			vecs[i] = randomVector(rr, r)
		}
		posts := Postings(r, vecs)
		if len(posts) != r {
			return false
		}
		for b, list := range posts {
			for k, i := range list {
				if !vecs[i].Get(b) {
					return false
				}
				if k > 0 && list[k-1] >= i {
					return false
				}
			}
		}
		total := 0
		for _, list := range posts {
			total += len(list)
		}
		sum := 0
		for _, v := range vecs {
			sum += v.PopCount()
		}
		return total == sum
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPostingsWidthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on width mismatch")
		}
	}()
	Postings(8, []Vector{New(16)})
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

func TestArenaCarveAndReset(t *testing.T) {
	var a Arena
	v1 := a.Vec(100)
	v2 := a.Vec(100)
	v1.Set(3)
	if v2.Get(3) {
		t.Fatal("carved vectors share storage")
	}
	v2.Set(99)
	a.Reset()
	// The next cycle re-carves the same storage, zeroed.
	w1, w2 := a.Vec(100), a.Vec(100)
	if w1.PopCount() != 0 || w2.PopCount() != 0 {
		t.Fatalf("re-carved vectors not zeroed: %d, %d set bits", w1.PopCount(), w2.PopCount())
	}
	if got := len(a.blocks); got != 1 {
		t.Fatalf("reset cycle grew the arena to %d blocks", got)
	}
}

func TestArenaGrowthKeepsCarvedVectors(t *testing.T) {
	var a Arena
	first := a.Vec(64)
	first.Set(7)
	// Force several new blocks behind first's back.
	for i := 0; i < 3*arenaBlockWords; i++ {
		a.Vec(64)
	}
	if !first.Get(7) || first.PopCount() != 1 {
		t.Fatal("arena growth disturbed an already-carved vector")
	}
}

func TestArenaOversizedVector(t *testing.T) {
	var a Arena
	n := (arenaBlockWords + 1) * 64
	v := a.Vec(n)
	v.Set(n - 1)
	if v.PopCount() != 1 {
		t.Fatal("oversized carve corrupt")
	}
	// A later carve lands in a fresh block, clear of the oversized one.
	w := a.Vec(64)
	w.Set(0)
	if !v.Get(n-1) || v.PopCount() != 1 {
		t.Fatal("carve after an oversized vector overlapped it")
	}
	if a.Vec(0).Len() != 0 {
		t.Fatal("zero-width carve")
	}
}

// TestPropertyPostingIndexMatchesReference checks the tiled, recycled
// PostingIndex build against the one-shot Postings reference, reusing one
// index across trials (so stale recycled state would surface) and mixing
// widths on both sides of the postingsTileWords boundary.
func TestPropertyPostingIndexMatchesReference(t *testing.T) {
	var ix PostingIndex
	rr := rand.New(rand.NewSource(11))
	widths := []int{1, 63, 64, 150, 8192, 8192 + 257, 3 * 8192}
	for trial := 0; trial < 40; trial++ {
		r := widths[rr.Intn(len(widths))]
		vecs := make([]Vector, rr.Intn(40))
		for i := range vecs {
			v := New(r)
			for k := 0; k < 1+rr.Intn(16); k++ {
				v.Set(rr.Intn(r))
			}
			vecs[i] = v
		}
		want := Postings(r, vecs)
		got := ix.Build(r, vecs)
		if len(got) != len(want) {
			t.Fatalf("trial %d: r=%d len %d != %d", trial, r, len(got), len(want))
		}
		for b := range want {
			if !slicesEqual32(got[b], want[b]) {
				t.Fatalf("trial %d: r=%d bit %d: %v != %v", trial, r, b, got[b], want[b])
			}
		}
	}
}

func slicesEqual32(a, b []int32) bool {
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

// TestAllocPostingIndexWarmBuild gates the zero-alloc steady state of the
// pooled inverted-index transpose (the ci.sh alloc-gate job runs every
// TestAlloc* with GOGC=off).
func TestAllocPostingIndexWarmBuild(t *testing.T) {
	if race.Enabled {
		t.Skip("race-mode sync.Pool drops Puts by design; the alloc gate runs without -race")
	}
	const r = 300
	vecs := make([]Vector, 200)
	rr := rand.New(rand.NewSource(5))
	for i := range vecs {
		vecs[i] = randomVector(rr, r)
	}
	var ix PostingIndex
	ix.Build(r, vecs)
	allocs := testing.AllocsPerRun(100, func() {
		ix.Build(r, vecs)
	})
	if allocs != 0 {
		t.Fatalf("warm PostingIndex.Build allocates %v objects/op, want 0", allocs)
	}
}

// TestAllocArenaWarmCarve: after one carve/Reset cycle sized the arena, the
// steady state carves without allocating.
func TestAllocArenaWarmCarve(t *testing.T) {
	if race.Enabled {
		t.Skip("race-mode sync.Pool drops Puts by design; the alloc gate runs without -race")
	}
	var a Arena
	carve := func() {
		for i := 0; i < 64; i++ {
			v := a.Vec(300)
			v.Set(i)
		}
		a.Reset()
	}
	carve()
	if allocs := testing.AllocsPerRun(100, carve); allocs != 0 {
		t.Fatalf("warm arena cycle allocates %v objects/op, want 0", allocs)
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
