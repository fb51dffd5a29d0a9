// Package bitvec implements fixed-width bit vectors used as iteration tags.
//
// A tag Λ = λ0λ1…λ(r−1) marks which of the r data chunks an iteration (or an
// iteration chunk) accesses: bit k is set iff data chunk π_k is touched.
// An iteration chunk touches only a handful of the r data chunks, so its
// tag is a Sparse vector, the ascending list of its set bits; a cluster's
// tag, the OR of many, is a dense Vector. The package provides the
// operations the mapping algorithm needs: OR accumulation, population
// counts, the popcount-of-AND edge weight used by the similarity graph, the
// inverted index of set-bit lists the sparse similarity engine seeds from,
// and per-bit reference-counted cluster tags.
package bitvec

import (
	"fmt"
	"math/bits"
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

// OrInPlaceNew sets v = v ∨ o, like OrInPlace, and appends to dst the
// positions of the bits of o that v lacked — the bits the OR added — in
// increasing order, in one pass over the words.
func (v Vector) OrInPlaceNew(o Vector, dst []int32) []int32 {
	v.match(o)
	for i, w := range o.words {
		added := w &^ v.words[i]
		v.words[i] |= w
		for ; added != 0; added &= added - 1 {
			dst = append(dst, int32(i*wordBits+bits.TrailingZeros64(added)))
		}
	}
	return dst
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

// AppendSetBits appends the positions of all set bits to dst in increasing
// order and returns the extended slice.
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

// Sparse returns the set bits of v as a newly allocated Sparse vector of
// the same width.
func (v Vector) Sparse() Sparse {
	return Sparse{n: v.n, bits: v.AppendSetBits(make([]int32, 0, v.PopCount()))}
}

// PostingIndex is the inverted index of a set of tags given as their set
// bits: for every bit, the ascending indices of the tags that set it. Two
// tags share a "1" bit (ω ≥ 1) iff they co-occur in a list, so the
// similarity pass enumerates only the overlapping pairs instead of the
// dense n² product.
//
// A build costs O(total set bits), never O(r): the per-bit slots are
// generation-stamped, so slots left over from earlier builds read as bits
// no tag sets, and the lists and their fill cursors are sized by the
// distinct bits. The storage is recycled across builds, so a reused index
// stops allocating once warm. The zero value is ready to use.
type PostingIndex struct {
	slots  []postingSlot // per bit; valid iff gen matches the index's
	gen    uint32
	flat   []int32 // the lists, back to back
	starts []int32 // list k is flat[starts[k]:starts[k+1]]
	fill   []int32 // per list: where its next entry goes, during a build
	later  []Span  // per set bit of the rows, in order: its later rows
}

type postingSlot struct {
	gen  uint32 // the build that stamped list
	list int32  // the bit's list
}

// Span is the part flat[Lo:Hi] of a PostingIndex's lists.
type Span struct{ Lo, Hi int32 }

// Build indexes rows, each the ascending set bits of one r-bit tag. It
// returns the lists back to back in flat, and for each set bit of each row
// in order (row 0's bits first) the span of flat that lists the later rows
// setting the same bit: the tags after the row that share that bit with
// it. Both slices alias the index's storage and are valid only until the
// next Build; List does not read later, so a caller may advance its spans
// as it consumes them. It panics if a bit lies outside [0, r).
func (ix *PostingIndex) Build(r int, rows [][]int32) (flat []int32, later []Span) {
	if len(ix.slots) < r {
		ix.slots = make([]postingSlot, r)
	}
	if ix.gen++; ix.gen == 0 {
		clear(ix.slots)
		ix.gen = 1
	}
	slots, gen := ix.slots[:r], ix.gen
	// A counting sort: count each list's length, lay the lists out back to
	// back, then place the rows in order, so every list comes out
	// ascending.
	starts := ix.starts[:0]
	total := 0
	for _, row := range rows {
		for _, b := range row {
			if uint(b) >= uint(r) {
				panic(fmt.Sprintf("bitvec: posting bit %d outside width %d", b, r))
			}
			s := &slots[b]
			if s.gen != gen {
				s.gen, s.list = gen, int32(len(starts))
				starts = append(starts, 0)
			}
			starts[s.list]++
		}
		total += len(row)
	}
	var off int32
	for k, c := range starts {
		starts[k] = off
		off += c
	}
	starts = append(starts, off)
	fill := append(ix.fill[:0], starts[:len(starts)-1]...)
	if cap(ix.flat) < total {
		ix.flat, ix.later = make([]int32, total), make([]Span, total)
	}
	flat, later = ix.flat[:total], ix.later[:total]
	x := 0
	for i, row := range rows {
		for _, b := range row {
			k := slots[b].list
			p := fill[k]
			fill[k]++
			flat[p] = int32(i)
			later[x] = Span{p + 1, starts[k+1]}
			x++
		}
	}
	ix.starts, ix.fill = starts, fill
	return flat, later
}

// List returns the ascending rows of the last Build that set bit b: empty
// when none did.
func (ix *PostingIndex) List(b int32) []int32 {
	if s := ix.slots[b]; s.gen == ix.gen {
		return ix.flat[ix.starts[s.list]:ix.starts[s.list+1]]
	}
	return nil
}

// Sparse is a fixed-width bit vector held as the positions of its set
// bits, ascending. It is the form of an iteration-chunk tag: a chunk
// touches a few of the r data chunks, so walking its bits costs O(set
// bits) where a dense Vector costs O(r/64) words. The zero value is an
// empty (length 0) vector. A Sparse is immutable; copies share the bit
// list.
type Sparse struct {
	n    int
	bits []int32
}

// NewSparse returns the n-bit sparse vector whose set bits are bits, which
// it keeps (callers must not modify bits afterwards). It panics unless the
// bits ascend strictly inside [0, n).
func NewSparse(n int, bits []int32) Sparse {
	if n < 0 {
		panic(fmt.Sprintf("bitvec: negative length %d", n))
	}
	prev := int32(-1)
	for _, b := range bits {
		if b <= prev || int(b) >= n {
			panic(fmt.Sprintf("bitvec: sparse bits %v not ascending inside [0,%d)", bits, n))
		}
		prev = b
	}
	return Sparse{n: n, bits: bits}
}

// Len returns the number of bits in the vector.
func (s Sparse) Len() int { return s.n }

// PopCount returns the number of set bits.
func (s Sparse) PopCount() int { return len(s.bits) }

// Bits returns the positions of the set bits, ascending. The slice is
// shared with s and must not be modified.
func (s Sparse) Bits() []int32 { return s.bits }

// Dense returns s as a newly allocated dense Vector.
func (s Sparse) Dense() Vector {
	v := New(s.n)
	s.OrInto(v)
	return v
}

// OrInto sets v = v ∨ s in O(set bits of s).
func (s Sparse) OrInto(v Vector) {
	v.matchSparse(s)
	for _, b := range s.bits {
		v.words[b/wordBits] |= 1 << (uint32(b) % wordBits)
	}
}

// OrIntoNew sets v = v ∨ s, like OrInto, and appends to dst the bits of s
// that v lacked, ascending, in O(set bits of s).
func (s Sparse) OrIntoNew(v Vector, dst []int32) []int32 {
	v.matchSparse(s)
	for _, b := range s.bits {
		w, bit := &v.words[b/wordBits], uint64(1)<<(uint32(b)%wordBits)
		if *w&bit == 0 {
			*w |= bit
			dst = append(dst, b)
		}
	}
	return dst
}

// AndPopCount returns popcount(s ∧ v): how many of s's set bits are set
// in v, in O(set bits of s). It is the similarity weight of a chunk
// against a dense tag.
func (s Sparse) AndPopCount(v Vector) int {
	v.matchSparse(s)
	total := 0
	for _, b := range s.bits {
		total += int(v.words[b/wordBits] >> (uint32(b) % wordBits) & 1)
	}
	return total
}

func (v Vector) matchSparse(s Sparse) {
	if v.n != s.n {
		panic(fmt.Sprintf("bitvec: length mismatch %d vs %d", v.n, s.n))
	}
}

// String renders the vector in the paper's λ0λ1…λ(r−1) order ("0011…").
func (s Sparse) String() string {
	buf := make([]byte, s.n)
	for i := range buf {
		buf[i] = '0'
	}
	for _, b := range s.bits {
		buf[b] = '1'
	}
	return string(buf)
}

// Counted is a bit vector maintained as per-bit reference counts: Add
// increments the count of every bit set in the argument, Sub decrements,
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
// through Add and Sub.
func (c *Counted) Vec() Vector { return c.vec }

// Add increments the count of every bit set in v, setting bits in the OR
// view on 0→1 transitions.
func (c *Counted) Add(v Sparse) {
	c.vec.matchSparse(v)
	for _, b := range v.bits {
		if c.counts[b]++; c.counts[b] == 1 {
			c.vec.words[b/wordBits] |= 1 << (uint32(b) % wordBits)
		}
	}
}

// Sub decrements the count of every bit set in v, clearing bits in the OR
// view on 1→0 transitions. It panics if a count would go negative (the
// vector being removed was never added).
func (c *Counted) Sub(v Sparse) {
	c.vec.matchSparse(v)
	for _, b := range v.bits {
		c.counts[b]--
		switch {
		case c.counts[b] == 0:
			c.vec.words[b/wordBits] &^= 1 << (uint32(b) % wordBits)
		case c.counts[b] < 0:
			panic(fmt.Sprintf("bitvec: counted underflow at bit %d", b))
		}
	}
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
