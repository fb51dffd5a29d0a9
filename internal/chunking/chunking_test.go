package chunking

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestArrayBasics(t *testing.T) {
	a := Array{Name: "A", Dims: []int64{4, 5}, ElemSize: 8}
	if a.NumElems() != 20 {
		t.Fatalf("NumElems = %d", a.NumElems())
	}
	if a.Bytes() != 160 {
		t.Fatalf("Bytes = %d", a.Bytes())
	}
}

func TestLinearIndexRowMajor(t *testing.T) {
	a := Array{Name: "A", Dims: []int64{3, 4}, ElemSize: 4}
	if got := a.LinearIndex([]int64{0, 0}); got != 0 {
		t.Fatalf("(0,0) -> %d", got)
	}
	if got := a.LinearIndex([]int64{1, 2}); got != 6 {
		t.Fatalf("(1,2) -> %d, want 6", got)
	}
	if got := a.LinearIndex([]int64{2, 3}); got != 11 {
		t.Fatalf("(2,3) -> %d, want 11", got)
	}
}

func TestLinearIndexClamps(t *testing.T) {
	a := Array{Name: "A", Dims: []int64{3, 4}, ElemSize: 4}
	if got := a.LinearIndex([]int64{-1, 0}); got != 0 {
		t.Fatalf("clamp low -> %d", got)
	}
	if got := a.LinearIndex([]int64{5, 9}); got != 11 {
		t.Fatalf("clamp high -> %d, want 11", got)
	}
}

func TestLinearIndexArityPanics(t *testing.T) {
	a := Array{Name: "A", Dims: []int64{3}, ElemSize: 4}
	defer func() {
		if recover() == nil {
			t.Fatal("arity mismatch did not panic")
		}
	}()
	a.LinearIndex([]int64{1, 2})
}

func TestDataSpaceChunkNumbering(t *testing.T) {
	// Two arrays; per Figure 4, chunks are per-array and numbered across
	// array boundaries contiguously.
	a := Array{Name: "A", Dims: []int64{10}, ElemSize: 8}   // 80 B -> 3 chunks of 32
	b := Array{Name: "B", Dims: []int64{4, 2}, ElemSize: 4} // 32 B -> 1 chunk
	ds := NewDataSpace(32, a, b)
	if ds.NumChunks() != 4 {
		t.Fatalf("NumChunks = %d, want 4", ds.NumChunks())
	}
	if ds.ChunkBase(1)-ds.ChunkBase(0) != 3 || ds.NumChunks()-ds.ChunkBase(1) != 1 {
		t.Fatal("per-array chunk counts wrong")
	}
	if ds.ChunkBase(0) != 0 || ds.ChunkBase(1) != 3 {
		t.Fatal("chunk bases wrong")
	}
	if got := ds.ChunkOf(0, []int64{0}); got != 0 {
		t.Fatalf("A[0] -> chunk %d", got)
	}
	if got := ds.ChunkOf(0, []int64{4}); got != 1 { // byte 32
		t.Fatalf("A[4] -> chunk %d, want 1", got)
	}
	if got := ds.ChunkOf(0, []int64{9}); got != 2 {
		t.Fatalf("A[9] -> chunk %d, want 2", got)
	}
	if got := ds.ChunkOf(1, []int64{0, 0}); got != 3 {
		t.Fatalf("B[0,0] -> chunk %d, want 3 (no chunk spans arrays)", got)
	}
}

func TestChunkOfElem(t *testing.T) {
	ds := NewDataSpace(16, Array{Name: "A", Dims: []int64{10}, ElemSize: 8})
	if got := ds.ChunkOf(0, []int64{0}); got != 0 {
		t.Fatalf("elem 0 -> %d", got)
	}
	if got := ds.ChunkOf(0, []int64{2}); got != 1 {
		t.Fatalf("elem 2 -> %d, want 1", got)
	}
	if got := ds.ChunkOf(0, []int64{-5}); got != 0 {
		t.Fatalf("clamped low -> %d", got)
	}
	if got := ds.ChunkOf(0, []int64{99}); got != ds.NumChunks()-1 {
		t.Fatalf("clamped high -> %d", got)
	}
}

func TestRaggedLastChunk(t *testing.T) {
	// 72 bytes with 32-byte chunks -> 3 chunks (last one partial).
	ds := NewDataSpace(32, Array{Name: "A", Dims: []int64{9}, ElemSize: 8})
	if ds.NumChunks() != 3 {
		t.Fatalf("NumChunks = %d, want 3", ds.NumChunks())
	}
	if got := ds.ChunkOf(0, []int64{8}); got != 2 {
		t.Fatalf("last element -> chunk %d", got)
	}
}

func TestRescale(t *testing.T) {
	ds := NewDataSpace(64, Array{Name: "A", Dims: []int64{32}, ElemSize: 8})
	half := ds.Rescale(32)
	if half.NumChunks() != ds.NumChunks()*2 {
		t.Fatalf("Rescale: %d vs %d chunks", half.NumChunks(), ds.NumChunks())
	}
	if ds.NumChunks() != 4 {
		t.Fatal("original mutated by Rescale")
	}
}

func TestNewDataSpaceValidation(t *testing.T) {
	for name, fn := range map[string]func(){
		"zero chunk": func() { NewDataSpace(0, Array{Name: "A", Dims: []int64{1}, ElemSize: 1}) },
		"no arrays":  func() { NewDataSpace(8) },
		"zero elem":  func() { NewDataSpace(8, Array{Name: "A", Dims: []int64{1}, ElemSize: 0}) },
		"empty dims": func() { NewDataSpace(8, Array{Name: "A", Dims: []int64{0}, ElemSize: 4}) },
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

func TestTotalBytes(t *testing.T) {
	ds := NewDataSpace(32,
		Array{Name: "A", Dims: []int64{10}, ElemSize: 8},
		Array{Name: "B", Dims: []int64{4}, ElemSize: 4},
	)
	if ds.TotalBytes() != 96 {
		t.Fatalf("TotalBytes = %d", ds.TotalBytes())
	}
}

// Property: chunk ids are within the owning array's range, monotone in the
// element index, and the next array's chunks start at its ChunkBase.
func TestPropertyChunkMapping(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		dims := []int64{int64(1 + r.Intn(8)), int64(1 + r.Intn(8))}
		elem := int64(1 + r.Intn(8))
		chunk := int64(1 + r.Intn(64))
		a := Array{Name: "A", Dims: dims, ElemSize: elem}
		b := Array{Name: "B", Dims: []int64{int64(1 + r.Intn(16))}, ElemSize: elem}
		ds := NewDataSpace(chunk, a, b)
		prev := -1
		for e := int64(0); e < a.NumElems(); e++ {
			subs := []int64{e / dims[1], e % dims[1]}
			c1 := ds.ChunkOf(0, subs)
			if c1 < 0 || c1 >= ds.ChunkBase(1) {
				return false
			}
			if c1 < prev {
				return false
			}
			prev = c1
		}
		// Array B's chunks start exactly at ChunkBase(1), and the last
		// chunk of the space is B's.
		return ds.ChunkOf(1, []int64{0}) == ds.ChunkBase(1) &&
			ds.NumChunks()-1 >= ds.ChunkBase(1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: halving the chunk size never decreases the chunk count, and
// every byte of every array is covered (sum of per-array chunks × size >=
// total bytes).
func TestPropertyRescaleCoverage(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		ds := NewDataSpace(int64(2+2*r.Intn(32)),
			Array{Name: "A", Dims: []int64{int64(1 + r.Intn(50))}, ElemSize: int64(1 + r.Intn(16))})
		half := ds.Rescale(ds.ChunkBytes / 2)
		if half.NumChunks() < ds.NumChunks() {
			return false
		}
		return int64(ds.NumChunks())*ds.ChunkBytes >= ds.TotalBytes()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
