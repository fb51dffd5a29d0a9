// Package tags implements Section 4.2 of the paper: per-iteration data
// chunk tags and their grouping into iteration chunks.
//
// An iteration σ gets an r-bit tag Λ with bit k set iff σ accesses data
// chunk π_k through any reference in the loop body. An iteration chunk γ^Λ
// is the set of iterations carrying the same tag; all of them have the same
// chunk-level access pattern, so they execute back to back and are the unit
// the distribution algorithm (package core) clusters.
package tags

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"repro/internal/bitvec"
	"repro/internal/chunking"
	"repro/internal/itset"
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

// ctxCheckInterval is how many iterations a tagging shard processes between
// cooperative cancellation checks.
const ctxCheckInterval = 4096

// group accumulates the iterations sharing one tag signature.
type group struct {
	chunks []int // sorted distinct data chunk ids (the tag's set bits)
	iters  itset.Set
}

// partial is the tagging result of one contiguous box-index shard.
type partial struct {
	groups map[string]*group
	order  []string // first-seen order of signatures within the shard
}

// ComputeCtx is Compute with cooperative cancellation and optional
// parallelism: the box-index range is split into contiguous shards tagged
// by up to workers goroutines (workers <= 1 runs inline), then merged in
// shard order. Because grouping is keyed by tag signature and the final
// ordering sorts by first iteration index — a total order over the
// disjoint iteration sets — the result is byte-identical at any worker
// count. Returns ctx.Err() if canceled mid-computation.
func ComputeCtx(ctx context.Context, nest *polyhedral.Nest, refs []polyhedral.Ref, data *chunking.DataSpace, workers int) ([]*IterationChunk, error) {
	if nest == nil || data == nil || len(refs) == 0 {
		panic("tags: nil nest/data or empty refs")
	}
	box := nest.BoxSize()
	if workers < 1 {
		workers = 1
	}
	// Shards below a few check intervals cost more in merge bookkeeping
	// than they win back in parallelism.
	const minShard = ctxCheckInterval
	if int64(workers) > (box+minShard-1)/minShard {
		workers = int((box + minShard - 1) / minShard)
	}

	parts := make([]*partial, workers)
	errs := make([]error, workers)
	step := (box + int64(workers) - 1) / int64(workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo, hi := int64(w)*step, (int64(w)+1)*step
		if hi > box {
			hi = box
		}
		if workers == 1 {
			parts[w], errs[w] = computeRange(ctx, nest, refs, data, lo, hi)
			continue
		}
		wg.Add(1)
		go func(w int, lo, hi int64) {
			defer wg.Done()
			parts[w], errs[w] = computeRange(ctx, nest, refs, data, lo, hi)
		}(w, lo, hi)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return mergePartials(data.NumChunks(), parts), nil
}

// tagScratch is the recycled per-shard working state of computeRange: the
// subscript buffer, signature bytes and current-chunk list. Unlike the
// group map and its iteration sets — which escape into the result — these
// never leave the shard, so a sync.Pool makes repeat taggings of the same
// shape allocation-free in the inner loop.
type tagScratch struct {
	subs []int64
	sig  []byte
	cur  []int
}

var tagScratchPool = sync.Pool{New: func() any { return new(tagScratch) }}

// computeRange tags the iterations with box indices in [lo, hi).
func computeRange(ctx context.Context, nest *polyhedral.Nest, refs []polyhedral.Ref, data *chunking.DataSpace, lo, hi int64) (*partial, error) {
	p := &partial{groups: make(map[string]*group)}

	maxSubs := 0
	for _, ref := range refs {
		if len(ref.Exprs) > maxSubs {
			maxSubs = len(ref.Exprs)
		}
	}
	scr := tagScratchPool.Get().(*tagScratch)
	if cap(scr.subs) < maxSubs {
		scr.subs = make([]int64, maxSubs)
	}
	subs := scr.subs[:maxSubs]
	sig := scr.sig[:0]
	cur := scr.cur[:0]
	defer func() {
		scr.sig, scr.cur = sig, cur // keep any growth
		tagScratchPool.Put(scr)
	}()
	var since int
	var canceled bool
	nest.ForEachRange(lo, hi, func(idx int64, it []int64) bool {
		if since++; since >= ctxCheckInterval {
			since = 0
			if ctx.Err() != nil {
				canceled = true
				return false
			}
		}
		cur = cur[:0]
		for _, ref := range refs {
			s := ref.Eval(it, subs[:len(ref.Exprs)])
			cur = append(cur, data.ChunkOf(ref.Array, s))
		}
		sort.Ints(cur)
		// Deduplicate in place.
		w := 0
		for i, c := range cur {
			if i == 0 || c != cur[w-1] {
				cur[w] = c
				w++
			}
		}
		cur = cur[:w]
		sig = sig[:0]
		for _, c := range cur {
			sig = append(sig, byte(c), byte(c>>8), byte(c>>16), byte(c>>24))
		}
		// The compiler elides the []byte→string copy for the map lookup, so
		// the common revisit of a known signature does not allocate; the
		// string is materialized only for a first-seen signature.
		g, ok := p.groups[string(sig)]
		if !ok {
			key := string(sig)
			g = &group{chunks: append([]int(nil), cur...)}
			p.groups[key] = g
			p.order = append(p.order, key)
		}
		g.iters.Append(idx, idx+1)
		return true
	})
	if canceled {
		return nil, ctx.Err()
	}
	return p, nil
}

// mergePartials fuses shard results in shard order. Shards cover ascending
// disjoint index ranges, so per-signature run lists concatenate in
// ascending order and every Append stays O(1).
func mergePartials(r int, parts []*partial) []*IterationChunk {
	groups := make(map[string]*group)
	var order []string
	for _, p := range parts {
		for _, key := range p.order {
			pg := p.groups[key]
			g, ok := groups[key]
			if !ok {
				g = &group{chunks: pg.chunks}
				groups[key] = g
				order = append(order, key)
			}
			pg.iters.ForEachRun(func(run itset.Run) {
				g.iters.Append(run.Start, run.End)
			})
		}
	}

	// Each tag is its group's sorted chunk list, copied into one slab of
	// set bits instead of one allocation per group. The slab is one-shot,
	// never pooled: the tags escape into the returned chunks, which outlive
	// this call arbitrarily (plan caches keep decoded chunk lists for their
	// stale tier), so recycling the backing would corrupt cached plans. The
	// chunk structs come from one slab likewise.
	total := 0
	for _, key := range order {
		total += len(groups[key].chunks)
	}
	out := make([]*IterationChunk, 0, len(order))
	chunkSlab := make([]IterationChunk, len(order))
	bitSlab := make([]int32, 0, total)
	for gi, key := range order {
		g := groups[key]
		off := len(bitSlab)
		for _, c := range g.chunks {
			bitSlab = append(bitSlab, int32(c))
		}
		tag := bitvec.NewSparse(r, bitSlab[off:len(bitSlab):len(bitSlab)])
		chunkSlab[gi] = IterationChunk{Tag: tag, Iters: g.iters}
		out = append(out, &chunkSlab[gi])
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Iters.Min() < out[j].Iters.Min() })
	return out
}

// TotalIterations sums the iteration counts of a chunk list.
func TotalIterations(chunks []*IterationChunk) int64 {
	var total int64
	for _, c := range chunks {
		total += c.Count()
	}
	return total
}
