// Package bitvec implements fixed-width bit vectors used as iteration tags.
//
// A tag Λ = λ0λ1…λ(r−1) marks which of the r data chunks an iteration (or an
// iteration chunk) accesses: bit k is set iff data chunk π_k is touched.
// The package provides the operations the mapping algorithm needs: OR
// accumulation, population counts, the popcount-of-AND edge weight used by
// the similarity graph, the posting-list transpose the sparse similarity
// engine seeds from, and per-bit reference-counted cluster tags.
package bitvec

import (
	"fmt"
	"math/bits"
	"strings"
)

const wordBits = 64

// Vector is a fixed-length bit vector. The zero value is an empty (length 0)
// vector; use New to create a vector of a given width.
type Vector struct {
	n     int
	words []uint64
}

// New returns a zeroed Vector with n bits. It panics if n is negative.
func New(n int) Vector {
	if n < 0 {
		panic(fmt.Sprintf("bitvec: negative length %d", n))
	}
	return Vector{n: n, words: make([]uint64, (n+wordBits-1)/wordBits)}
}

// NewArena returns count zeroed n-bit Vectors carved from one shared backing
// array — one allocation instead of count, for callers that create many
// equal-width vectors at once. Each vector owns a disjoint word range.
func NewArena(count, n int) []Vector {
	if n < 0 {
		panic(fmt.Sprintf("bitvec: negative length %d", n))
	}
	w := (n + wordBits - 1) / wordBits
	backing := make([]uint64, count*w)
	vs := make([]Vector, count)
	for i := range vs {
		vs[i] = Vector{n: n, words: backing[i*w : (i+1)*w : (i+1)*w]}
	}
	return vs
}

// arenaBlockWords sizes an Arena backing block: 4096 words = 32 KiB, large
// enough to amortize block bookkeeping and small enough that a mostly-idle
// arena does not pin much memory in a sync.Pool.
const arenaBlockWords = 4096

// Arena is a reusable bump allocator for equal-lifetime Vectors. Vec carves
// a zeroed vector from block-based backing storage; Reset rewinds the arena
// so the blocks are re-carved by the next cycle. Growth never moves memory
// that was already handed out — carved Vectors keep their own word windows —
// so an Arena may grow mid-cycle without invalidating earlier vectors.
//
// A Reset recycles every previously carved vector's storage, so the caller
// must ensure none of them is still live. The intended pattern is a
// sync.Pool of Arenas where each request Gets one, carves request-scoped
// vectors, and Resets+Puts it only after the last carved vector is dead
// (see internal/core for the cluster-tag use). The zero value is ready to
// use. An Arena must not be used from multiple goroutines concurrently.
type Arena struct {
	blocks [][]uint64
	cur    int // index of the block being carved
	off    int // word offset into blocks[cur]
}

// Vec carves a zeroed n-bit Vector from the arena. It panics if n is
// negative.
func (a *Arena) Vec(n int) Vector {
	if n < 0 {
		panic(fmt.Sprintf("bitvec: negative length %d", n))
	}
	w := (n + wordBits - 1) / wordBits
	if w == 0 {
		return Vector{n: n}
	}
	for {
		if a.cur < len(a.blocks) {
			blk := a.blocks[a.cur]
			if a.off+w <= len(blk) {
				words := blk[a.off : a.off+w : a.off+w]
				a.off += w
				clear(words)
				return Vector{n: n, words: words}
			}
			// The remainder of this block is too small; waste it and move
			// on. Widths are constant within a request shape, so the waste
			// is bounded by one vector per block.
			a.cur++
			a.off = 0
			continue
		}
		sz := arenaBlockWords
		if w > sz {
			sz = w
		}
		a.blocks = append(a.blocks, make([]uint64, sz))
	}
}

// Reset rewinds the arena so all blocks are available for re-carving. Every
// Vector previously carved from the arena becomes invalid: its storage will
// be handed out again.
func (a *Arena) Reset() {
	a.cur, a.off = 0, 0
}

// FromIndices builds an n-bit Vector with the given bit positions set.
func FromIndices(n int, indices ...int) Vector {
	v := New(n)
	for _, i := range indices {
		v.Set(i)
	}
	return v
}

// Len returns the number of bits in the vector.
func (v Vector) Len() int { return v.n }

// Set sets bit i. It panics if i is out of range.
func (v Vector) Set(i int) {
	v.check(i)
	v.words[i/wordBits] |= 1 << (uint(i) % wordBits)
}

// Clear clears bit i. It panics if i is out of range.
func (v Vector) Clear(i int) {
	v.check(i)
	v.words[i/wordBits] &^= 1 << (uint(i) % wordBits)
}

// Get reports whether bit i is set. It panics if i is out of range.
func (v Vector) Get(i int) bool {
	v.check(i)
	return v.words[i/wordBits]&(1<<(uint(i)%wordBits)) != 0
}

func (v Vector) check(i int) {
	if i < 0 || i >= v.n {
		panic(fmt.Sprintf("bitvec: index %d out of range [0,%d)", i, v.n))
	}
}

// Clone returns an independent copy of v.
func (v Vector) Clone() Vector {
	w := Vector{n: v.n, words: make([]uint64, len(v.words))}
	copy(w.words, v.words)
	return w
}

// OrInPlace sets v = v ∨ o, avoiding an allocation.
func (v Vector) OrInPlace(o Vector) {
	v.match(o)
	for i := range v.words {
		v.words[i] |= o.words[i]
	}
}

func (v Vector) match(o Vector) {
	if v.n != o.n {
		panic(fmt.Sprintf("bitvec: length mismatch %d vs %d", v.n, o.n))
	}
}

// PopCount returns the number of set bits.
func (v Vector) PopCount() int {
	total := 0
	for _, w := range v.words {
		total += bits.OnesCount64(w)
	}
	return total
}

// AndPopCount returns popcount(v ∧ o) without allocating the intermediate
// vector. This is the similarity-graph edge weight ω(γ^Λi, γ^Λj) from the
// paper: the number of common "1" bits in Λi ∧ Λj.
func (v Vector) AndPopCount(o Vector) int {
	v.match(o)
	total := 0
	for i := range v.words {
		total += bits.OnesCount64(v.words[i] & o.words[i])
	}
	return total
}

// Intersects reports whether v and o share at least one set bit. It is an
// early-exiting AndPopCount > 0.
func (v Vector) Intersects(o Vector) bool {
	v.match(o)
	for i := range v.words {
		if v.words[i]&o.words[i] != 0 {
			return true
		}
	}
	return false
}

// AndNotInto sets v = a &^ b (the bits of a not in b) and reports whether
// any bit is set. All three vectors must share the same length.
func (v Vector) AndNotInto(a, b Vector) bool {
	v.match(a)
	v.match(b)
	var any uint64
	for i := range v.words {
		w := a.words[i] &^ b.words[i]
		v.words[i] = w
		any |= w
	}
	return any != 0
}

// IsZero reports whether no bit is set.
func (v Vector) IsZero() bool {
	for _, w := range v.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Equal reports whether v and o have the same length and the same bits.
func (v Vector) Equal(o Vector) bool {
	if v.n != o.n {
		return false
	}
	for i := range v.words {
		if v.words[i] != o.words[i] {
			return false
		}
	}
	return true
}

// Indices returns the positions of all set bits in increasing order.
func (v Vector) Indices() []int {
	out := make([]int, 0, v.PopCount())
	for wi, w := range v.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			out = append(out, wi*wordBits+b)
			w &= w - 1
		}
	}
	return out
}

// ForEach calls fn for every set bit position in increasing order.
func (v Vector) ForEach(fn func(i int)) {
	for wi, w := range v.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			fn(wi*wordBits + b)
			w &= w - 1
		}
	}
}

// AppendSetBits appends the positions of all set bits to dst in increasing
// order and returns the extended slice. It is the allocation-free sibling
// of Indices for hot loops that reuse a scratch slice.
func (v Vector) AppendSetBits(dst []int32) []int32 {
	for wi, w := range v.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			dst = append(dst, int32(wi*wordBits+b))
			w &= w - 1
		}
	}
	return dst
}

// Postings builds the inverted index of a set of equal-width vectors: entry
// b lists, in increasing order, the indices i of every vector whose bit b is
// set. This is the posting-list view of the similarity graph — two vectors
// share a "1" bit (ω ≥ 1) iff they co-occur in at least one posting list —
// so consumers can enumerate only the overlapping pairs instead of the
// dense n² product. r is the common vector width (posting lists of width-r
// vectors; vectors of a different width cause a panic).
func Postings(r int, vecs []Vector) [][]int32 {
	return new(PostingIndex).Build(r, vecs)
}

// postingsTileWords bounds the bit-range one tiling pass touches: 128 words
// = 8192 bits, so a tile's slice of the sizes array (32 KiB of int32) plus
// its active list headers stay L1/L2-resident while every vector streams
// through once. Wide tag spaces would otherwise scatter size increments and
// list appends across an r-proportional working set.
const postingsTileWords = 128

// PostingIndex is the reusable form of Postings: Build produces the same
// inverted index but recycles the size table, list headers and flat backing
// across calls, so a pooled index makes repeat transposes allocation-free
// once warm. The returned lists alias the index's backing array and are
// valid only until the next Build.
type PostingIndex struct {
	sizes   []int32
	lists   [][]int32
	backing []int32
}

// Build constructs the inverted index of vecs (see Postings) into the
// index's reused storage. The walk is tiled over the tag-bit space in
// postingsTileWords blocks: both the sizing and the fill pass confine their
// writes to one tile's bit range at a time, streaming the vector set once
// per tile. Within a tile bits ascend per vector and vectors are visited in
// ascending order, so every posting list comes out identical to the
// untiled two-pass construction.
func (ix *PostingIndex) Build(r int, vecs []Vector) [][]int32 {
	words := (r + wordBits - 1) / wordBits
	for _, v := range vecs {
		if v.Len() != r {
			panic(fmt.Sprintf("bitvec: postings width mismatch %d vs %d", v.Len(), r))
		}
	}
	if cap(ix.sizes) < r {
		ix.sizes = make([]int32, r)
	} else {
		ix.sizes = ix.sizes[:r]
		clear(ix.sizes)
	}
	sizes := ix.sizes
	total := 0
	for wLo := 0; wLo < words; wLo += postingsTileWords {
		wHi := min(wLo+postingsTileWords, words)
		for _, v := range vecs {
			for wi := wLo; wi < wHi; wi++ {
				w := v.words[wi]
				base := wi * wordBits
				for w != 0 {
					sizes[base+bits.TrailingZeros64(w)]++
					total++
					w &= w - 1
				}
			}
		}
	}
	if cap(ix.lists) < r {
		ix.lists = make([][]int32, r)
	} else {
		ix.lists = ix.lists[:r]
	}
	posts := ix.lists
	if cap(ix.backing) < total {
		ix.backing = make([]int32, total)
	}
	backing := ix.backing[:total]
	off := 0
	for b, sz := range sizes {
		if sz > 0 {
			posts[b] = backing[off : off : off+int(sz)]
			off += int(sz)
		} else {
			posts[b] = nil
		}
	}
	for wLo := 0; wLo < words; wLo += postingsTileWords {
		wHi := min(wLo+postingsTileWords, words)
		for i, v := range vecs {
			i32 := int32(i)
			for wi := wLo; wi < wHi; wi++ {
				w := v.words[wi]
				base := wi * wordBits
				for w != 0 {
					bi := base + bits.TrailingZeros64(w)
					posts[bi] = append(posts[bi], i32)
					w &= w - 1
				}
			}
		}
	}
	return posts
}

// String renders the vector in the paper's λ0λ1…λ(r−1) order ("0011…").
func (v Vector) String() string {
	var sb strings.Builder
	sb.Grow(v.n)
	for i := 0; i < v.n; i++ {
		if v.Get(i) {
			sb.WriteByte('1')
		} else {
			sb.WriteByte('0')
		}
	}
	return sb.String()
}

// Key returns a compact comparable representation of the vector's contents,
// usable as a map key for grouping iterations by tag.
func (v Vector) Key() string {
	buf := make([]byte, 0, len(v.words)*8)
	for _, w := range v.words {
		for s := 0; s < 64; s += 8 {
			buf = append(buf, byte(w>>uint(s)))
		}
	}
	return string(buf)
}

// Counted is a bit vector maintained as per-bit reference counts: AddVec
// increments the count of every bit set in the argument, SubVec decrements,
// and Vec exposes the OR view (bit set iff count > 0) without rebuilding it.
// It makes removing one member vector from an aggregate O(popcount(member))
// instead of re-OR-ing all remaining members — the cluster-tag maintenance
// the load-balancing stage needs.
type Counted struct {
	vec    Vector
	counts []int32
}

// InitCounted initializes c with caller-provided storage (typically carved
// from an arena, for hot paths that recycle counted vectors). vec and
// counts must both be zeroed, with len(counts) == vec.Len(); c takes
// ownership of both.
func InitCounted(c *Counted, vec Vector, counts []int32) {
	if len(counts) != vec.Len() {
		panic(fmt.Sprintf("bitvec: counted storage mismatch %d counts for %d bits", len(counts), vec.Len()))
	}
	c.vec, c.counts = vec, counts
}

// Vec returns the OR view of the counted vector: bit i is set iff its
// reference count is positive. The returned Vector shares storage with the
// Counted; callers must treat it as read-only and must not mutate it except
// through AddVec/SubVec.
func (c *Counted) Vec() Vector { return c.vec }

// AddVec increments the count of every bit set in v, setting bits in the OR
// view on 0→1 transitions.
func (c *Counted) AddVec(v Vector) {
	if v.Len() != c.vec.Len() {
		panic(fmt.Sprintf("bitvec: counted length mismatch %d vs %d", c.vec.Len(), v.Len()))
	}
	v.ForEach(func(i int) {
		c.counts[i]++
		if c.counts[i] == 1 {
			c.vec.Set(i)
		}
	})
}

// SubVec decrements the count of every bit set in v, clearing bits in the
// OR view on 1→0 transitions. It panics if a count would go negative (the
// vector being removed was never added).
func (c *Counted) SubVec(v Vector) {
	if v.Len() != c.vec.Len() {
		panic(fmt.Sprintf("bitvec: counted length mismatch %d vs %d", c.vec.Len(), v.Len()))
	}
	v.ForEach(func(i int) {
		c.counts[i]--
		switch {
		case c.counts[i] == 0:
			c.vec.Clear(i)
		case c.counts[i] < 0:
			panic(fmt.Sprintf("bitvec: counted underflow at bit %d", i))
		}
	})
}

// AddCounted accumulates another counted vector into c.
func (c *Counted) AddCounted(o *Counted) {
	if o.vec.Len() != c.vec.Len() {
		panic(fmt.Sprintf("bitvec: counted length mismatch %d vs %d", c.vec.Len(), o.vec.Len()))
	}
	for i, n := range o.counts {
		if n == 0 {
			continue
		}
		if c.counts[i] == 0 {
			c.vec.Set(i)
		}
		c.counts[i] += n
	}
}
