// Package tags implements Section 4.2 of the paper: per-iteration data
// chunk tags and their grouping into iteration chunks.
//
// An iteration σ gets an r-bit tag Λ with bit k set iff σ accesses data
// chunk π_k through any reference in the loop body. An iteration chunk γ^Λ
// is the set of iterations carrying the same tag; all of them have the same
// chunk-level access pattern, so they execute back to back and are the unit
// the distribution algorithm (package core) clusters.
//
// The paper gets the γ^Λ sets symbolically from the Omega Library. This
// package reads them off the references' affine form instead of visiting
// every iteration: along the innermost loop a subscript is affine in the
// loop variable, so the data chunk a reference touches can change only at
// a breakpoint computable in O(1) — a Mod wrap, a clamp at either array
// end, or the next chunk boundary of the byte offset. Each innermost-loop
// row is tagged in segments between breakpoints, and segments with the same
// chunk list are grouped into one chunk.
package tags

import (
	"context"
	"fmt"
	"math/bits"
	"slices"
	"sync"

	"repro/internal/bitvec"
	"repro/internal/chunking"
	"repro/internal/itset"
	"repro/internal/join"
	"repro/internal/polyhedral"
)

// IterationChunk is γ^Λ: the iterations (as lexicographic box indices of
// the nest) sharing tag Λ. The tag is held sparse, as its set bits: a chunk
// touches a handful of the r data chunks. Nest identifies which loop nest
// the indices refer to when several nests are distributed together
// (Section 5.4's multi-nest extension); single-nest users leave it zero.
type IterationChunk struct {
	Tag   bitvec.Sparse
	Iters itset.Set
	Nest  int
}

// Count returns the number of iterations in the chunk.
func (ic *IterationChunk) Count() int64 { return ic.Iters.Count() }

// Split divides the chunk into two chunks sharing its tag, the first
// holding the first n iterations. Used by load balancing when no whole
// chunk fits the balance threshold.
func (ic *IterationChunk) Split(n int64) (*IterationChunk, *IterationChunk) {
	a, b := ic.Iters.SplitAt(n)
	return &IterationChunk{Tag: ic.Tag, Iters: a, Nest: ic.Nest},
		&IterationChunk{Tag: ic.Tag, Iters: b, Nest: ic.Nest}
}

// String renders the chunk compactly.
func (ic *IterationChunk) String() string {
	return fmt.Sprintf("γ{%s|%d iters}", ic.Tag.String(), ic.Count())
}

// Compute groups the executing iterations of a nest into iteration chunks.
// Iterations are identified by their lexicographic box index; only
// guard-satisfying iterations are tagged. The result is ordered by first
// iteration index (deterministic).
func Compute(nest *polyhedral.Nest, refs []polyhedral.Ref, data *chunking.DataSpace) []*IterationChunk {
	out, err := ComputeCtx(context.Background(), nest, refs, data, 1)
	if err != nil {
		panic("tags: " + err.Error()) // unreachable: background ctx never cancels
	}
	return out
}

// ctxCheckInterval is how much work a tagging shard does between
// cooperative cancellation checks, counted in rows and segments. The check
// runs before a segment; a row its guards empty costs O(guards) to skip.
const ctxCheckInterval = 4096

// ComputeCtx is Compute with cooperative cancellation and optional
// parallelism: the box-index range is split into contiguous shards tagged
// by up to workers goroutines (workers <= 1 runs inline), whose segments
// are then grouped in shard order. Grouping is keyed by chunk list and
// coalesces runs across shard cuts, so the result is byte-identical at any
// worker count. Returns ctx.Err() if canceled mid-computation; a shard's
// panic is re-raised on the caller once every shard has returned.
func ComputeCtx(ctx context.Context, nest *polyhedral.Nest, refs []polyhedral.Ref, data *chunking.DataSpace, workers int) ([]*IterationChunk, error) {
	if nest == nil || data == nil || len(refs) == 0 {
		panic("tags: nil nest/data or empty refs")
	}
	// Shards of fewer than minShard box indices cost more to start than
	// they win back in parallelism.
	const minShard = 4096
	shards := min(int64(max(workers, 1)), (nest.BoxSize()+minShard-1)/minShard)
	return compute(ctx, nest, refs, data, int(max(shards, 1)))
}

// compute tags the box indices in shards contiguous shards on as many
// join.Each workers, and groups the segments.
func compute(ctx context.Context, nest *polyhedral.Nest, refs []polyhedral.Ref, data *chunking.DataSpace, shards int) ([]*IterationChunk, error) {
	scr := make([]*scratch, shards)
	for i := range scr {
		scr[i] = scratchPool.Get().(*scratch)
	}
	defer func() {
		for _, s := range scr {
			s.release()
		}
	}()
	p := &scr[0].prog
	p.compile(nest, refs, data)
	box := nest.BoxSize()
	step := (box + int64(shards) - 1) / int64(shards)
	if err := join.Each(shards, shards, func(_, i int) error {
		return p.tag(ctx, int64(i)*step, min(int64(i+1)*step, box), scr[i])
	}); err != nil {
		return nil, err
	}
	return groupSegments(data.NumChunks(), scr), nil
}

// program is a nest's references compiled for segment tagging. Shards
// only read it.
type program struct {
	nest       *polyhedral.Nest
	refs       []cref
	exprs      []cexpr
	chunkBytes int64
}

// cref is one reference: its subscripts exprs[lo:hi], and its array's
// element size and first global chunk id.
type cref struct {
	lo, hi int
	elem   int64
	base   int32
}

// cexpr is one subscript of a reference, split at the innermost loop j:
// the value Offset + outer·(outer iterators) + inner·j, then the Mod wrap
// and the Table lookup of polyhedral.RefExpr, then the clamp into [0, dim)
// of chunking.Array.LinearIndex.
type cexpr struct {
	outer    []int64 // coefficients of the outer loops
	inner    int64   // coefficient of the innermost loop; 0 if missing
	off, mod int64
	table    []int64
	dim      int64
}

// compile lays the references out in p, reusing its buffers.
func (p *program) compile(nest *polyhedral.Nest, refs []polyhedral.Ref, data *chunking.DataSpace) {
	in := nest.Depth() - 1
	p.nest, p.chunkBytes = nest, data.ChunkBytes
	p.refs, p.exprs = p.refs[:0], p.exprs[:0]
	for _, ref := range refs {
		if ref.Array < 0 || ref.Array >= len(data.Arrays) {
			panic(fmt.Sprintf("tags: array index %d out of range", ref.Array))
		}
		a := data.Arrays[ref.Array]
		if len(ref.Exprs) != len(a.Dims) {
			panic(fmt.Sprintf("tags: %d subscripts for %d-d array %q", len(ref.Exprs), len(a.Dims), a.Name))
		}
		lo := len(p.exprs)
		for d, e := range ref.Exprs {
			if len(e.Coeffs) > in+1 {
				panic(fmt.Sprintf("tags: %d coefficients for a depth-%d nest", len(e.Coeffs), in+1))
			}
			x := cexpr{outer: e.Coeffs[:min(len(e.Coeffs), in)], off: e.Offset, mod: e.Mod, table: e.Table, dim: a.Dims[d]}
			if len(e.Coeffs) > in {
				x.inner = e.Coeffs[in]
			}
			p.exprs = append(p.exprs, x)
		}
		p.refs = append(p.refs, cref{lo: lo, hi: len(p.exprs), elem: a.ElemSize, base: int32(data.ChunkBase(ref.Array))})
	}
}

// tag appends to s the segments of the executing iterations whose box
// indices lie in [lo, hi), one innermost-loop row at a time.
func (p *program) tag(ctx context.Context, lo, hi int64, s *scratch) error {
	if lo >= hi {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	in := p.nest.Depth() - 1
	first := p.nest.Lower[in]
	width := p.nest.Upper[in] - first + 1
	s.it = resize(s.it, in+1)
	s.rowv = resize(s.rowv, len(p.exprs))
	since := 0 // rows and segments since the last check of ctx
	for rowStart := lo - lo%width; rowStart < hi; rowStart += width {
		since++
		p.nest.IndexToIter(rowStart, s.it)
		jlo, jhi := p.clip(s.it, first+max(lo-rowStart, 0), first+min(hi-rowStart, width)-1)
		if jlo > jhi {
			continue
		}
		for e := range p.exprs {
			x := &p.exprs[e]
			v := x.off
			for k, c := range x.outer {
				v += c * s.it[k]
			}
			s.rowv[e] = v
		}
		for j := jlo; j <= jhi; {
			if since++; since >= ctxCheckInterval {
				since = 0
				if err := ctx.Err(); err != nil {
					return err
				}
			}
			mark := len(s.ids)
			n := p.segment(j, jhi-j+1, s)
			start := rowStart + j - first
			s.emit(start, start+n, mark)
			j += n
		}
	}
	return nil
}

// clip narrows the innermost-loop values [jlo, jhi] of the row at it to
// those every guard allows. With the outer iterators fixed, a guard
// c·j + rest >= 0 allows one interval of j, so their intersection is one
// interval too.
func (p *program) clip(it []int64, jlo, jhi int64) (int64, int64) {
	in := len(it) - 1
	for _, g := range p.nest.Guards {
		var c int64
		rest := g.Const
		for k, co := range g.Coeffs {
			if k == in {
				c = co
			} else {
				rest += co * it[k]
			}
		}
		switch {
		case c > 0:
			jlo = max(jlo, -floorDiv(rest, c))
		case c < 0:
			jhi = min(jhi, floorDiv(rest, -c))
		case rest < 0:
			return jlo, jlo - 1
		}
	}
	return jlo, jhi
}

// floorDiv returns ⌊a/b⌋ for b > 0.
func floorDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 && a < 0 {
		q--
	}
	return q
}

// segment appends to s.ids, ascending and without duplicates, the data
// chunks that iteration j of the current row touches, and returns for how
// many iterations from j on — at least 1, at most n — every reference stays
// in its chunk. Within that run each subscript is affine in j: it neither
// wraps, nor is looked up in a table, nor crosses a clamp point, so each
// reference's byte offset moves by a fixed step and the run ends no later
// than the offset's next chunk boundary.
func (p *program) segment(j, n int64, s *scratch) int64 {
	mark := len(s.ids)
	for _, r := range p.refs {
		var lin, slope int64
		for e := r.lo; e < r.hi; e++ {
			x := &p.exprs[e]
			v, sl := s.rowv[e]+x.inner*j, x.inner
			if x.mod > 0 {
				if v %= x.mod; v < 0 {
					v += x.mod
				}
				if sl > 0 {
					n = min(n, (x.mod-1-v)/sl+1)
				} else if sl < 0 {
					n = min(n, v/-sl+1)
				}
			}
			if len(x.table) > 0 {
				t := int64(len(x.table))
				if v %= t; v < 0 {
					v += t
				}
				v = x.table[v]
				if sl != 0 {
					n = 1
				}
				sl = 0
			}
			switch {
			case v < 0:
				if sl > 0 {
					n = min(n, (sl-1-v)/sl)
				}
				v, sl = 0, 0
			case v >= x.dim:
				if sl < 0 {
					n = min(n, (v-x.dim)/-sl+1)
				}
				v, sl = x.dim-1, 0
			case sl > 0:
				n = min(n, (x.dim-1-v)/sl+1)
			case sl < 0:
				n = min(n, v/-sl+1)
			}
			lin = lin*x.dim + v
			slope = slope*x.dim + sl
		}
		off, step := lin*r.elem, slope*r.elem
		c := off / p.chunkBytes
		if step > 0 {
			n = min(n, ((c+1)*p.chunkBytes-1-off)/step+1)
		} else if step < 0 {
			n = min(n, (off-c*p.chunkBytes)/-step+1)
		}
		s.ids = insertID(s.ids, mark, r.base+int32(c))
	}
	return n
}

// insertID adds id to the ascending, duplicate-free tail ids[mark:].
func insertID(ids []int32, mark int, id int32) []int32 {
	i := len(ids)
	for i > mark && ids[i-1] > id {
		i--
	}
	if i > mark && ids[i-1] == id {
		return ids
	}
	ids = append(ids, 0)
	copy(ids[i+1:], ids[i:])
	ids[i] = id
	return ids
}

// seg is one segment of a shard's stream: box indices [start, end) whose
// iterations all touch exactly the data chunks ids[lo:hi] of the shard.
type seg struct {
	start, end int64
	lo, hi     int32
}

// emit closes the segment [start, end) whose chunk list is s.ids[mark:]. It
// extends the previous segment instead when that one ends at start with the
// same list, as a short run cut at a breakpoint that moved no chunk does.
func (s *scratch) emit(start, end int64, mark int) {
	if n := len(s.segs); n > 0 {
		last := &s.segs[n-1]
		if last.end == start && slices.Equal(s.ids[last.lo:last.hi], s.ids[mark:]) {
			last.end = end
			s.ids = s.ids[:mark]
			return
		}
	}
	s.segs = append(s.segs, seg{start: start, end: end, lo: int32(mark), hi: int32(len(s.ids))})
}

// groupRec is one distinct chunk list while segments are grouped: the list
// gbits[lo:hi], its window runs[at:at+n] of the run slab, and the end of
// its last run so far.
type groupRec struct {
	lo, hi int
	at, n  int
	end    int64
}

// groupSegments turns the shards' segment streams, read in box-index
// order, into iteration chunks: one per distinct chunk list, found by open
// addressing over the lists, with a list's adjacent segments coalesced
// into one run. Chunks come out in first-appearance order, which is
// ascending first iteration. A first pass finds each segment's group and
// counts its runs, a second lays every group's runs into its window of one
// slab.
//
// The run slab, the tag slab and the chunk structs are one-shot, never
// pooled: they escape into the returned chunks, which outlive this call
// arbitrarily (plan caches keep decoded chunk lists for their stale tier),
// so recycling the backing would corrupt cached plans.
func groupSegments(r int, shards []*scratch) []*IterationChunk {
	m := shards[0]
	nseg := 0
	for _, s := range shards {
		nseg += len(s.segs)
	}
	logSize := bits.Len(uint(2 * nseg)) // a table at most half full
	mask := uint64(1)<<logSize - 1
	m.table = resize(m.table, 1<<logSize)
	clear(m.table)
	m.groups, m.gbits, m.segGroup = m.groups[:0], m.gbits[:0], m.segGroup[:0]
	for _, s := range shards {
		for _, sg := range s.segs {
			list := s.ids[sg.lo:sg.hi]
			var h uint64
			for _, id := range list {
				h = (h ^ uint64(id)) * 0x9e3779b97f4a7c15
			}
			slot := h >> (64 - logSize) & mask
			g := m.table[slot] - 1
			for ; g >= 0; g = m.table[slot] - 1 {
				if gr := &m.groups[g]; slices.Equal(m.gbits[gr.lo:gr.hi], list) {
					if gr.end != sg.start {
						gr.n++
					}
					gr.end = sg.end
					break
				}
				slot = (slot + 1) & mask
			}
			if g < 0 {
				g = int32(len(m.groups))
				m.table[slot] = g + 1
				m.groups = append(m.groups, groupRec{lo: len(m.gbits), hi: len(m.gbits) + len(list), n: 1, end: sg.end})
				m.gbits = append(m.gbits, list...)
			}
			m.segGroup = append(m.segGroup, g)
		}
	}

	total := 0
	for i := range m.groups {
		gr := &m.groups[i]
		gr.at, total, gr.n = total, total+gr.n, 0
	}
	runs := make([]itset.Run, total)
	k := 0
	for _, s := range shards {
		for _, sg := range s.segs {
			gr := &m.groups[m.segGroup[k]]
			k++
			if last := gr.at + gr.n - 1; gr.n > 0 && runs[last].End == sg.start {
				runs[last].End = sg.end
				continue
			}
			runs[gr.at+gr.n] = itset.Run{Start: sg.start, End: sg.end}
			gr.n++
		}
	}
	tagBits := slices.Clone(m.gbits)
	chunks := make([]IterationChunk, len(m.groups))
	out := make([]*IterationChunk, len(m.groups))
	for i, gr := range m.groups {
		end := gr.at + gr.n
		chunks[i] = IterationChunk{
			Tag:   bitvec.NewSparse(r, tagBits[gr.lo:gr.hi:gr.hi]),
			Iters: itset.FromSortedRuns(runs[gr.at:end:end]),
		}
		out[i] = &chunks[i]
	}
	return out
}

// scratch is one shard's recycled working state: its segment stream, its
// chunk-id lists and its row buffers. The first shard's scratch also holds
// the compiled program and the grouping tables. None of it escapes a call,
// so a sync.Pool makes repeat taggings of one shape allocate only their
// results.
type scratch struct {
	segs []seg
	ids  []int32
	it   []int64 // the current row's iteration vector
	rowv []int64 // each subscript's value at j = 0 in the current row

	prog program

	table    []int32 // open addressing: group index + 1, 0 if free
	groups   []groupRec
	gbits    []int32
	segGroup []int32
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// release empties s, dropping its references into the caller's program,
// and returns it to the pool.
func (s *scratch) release() {
	s.segs, s.ids = s.segs[:0], s.ids[:0]
	clear(s.prog.exprs)
	s.prog = program{refs: s.prog.refs[:0], exprs: s.prog.exprs[:0]}
	scratchPool.Put(s)
}

// resize returns b with length n, reallocated only if it is too small.
func resize[T any](b []T, n int) []T {
	if cap(b) < n {
		return make([]T, n)
	}
	return b[:n]
}

// TotalIterations sums the iteration counts of a chunk list.
func TotalIterations(chunks []*IterationChunk) int64 {
	var total int64
	for _, c := range chunks {
		total += c.Count()
	}
	return total
}
