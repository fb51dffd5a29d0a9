package core

// Sparse similarity engine. The Figure 5 merge stage is seeded by the
// similarity graph ω(γi, γj) = popcount(Λi ∧ Λj). Real tags are sparse (an
// iteration chunk touches a handful of the r data chunks), so the
// overwhelming majority of the n(n−1)/2 pairs have weight 0 — and a
// zero-weight pair can never outrank a positive one in the merge queue, nor
// can merging two zero-overlap clusters create overlap. The engine
// therefore builds an inverted index (data-chunk bit → ascending list of
// cluster indices whose tag sets that bit) and generates only the pairs
// that co-occur in at least one posting list, accumulating each pair's
// weight with a per-row counting pass instead of a per-pair AndPopCount.
// Zero-weight pairs are seeded lazily: only if the queue runs dry before the
// merge reaches k clusters (see the drain path in mergeClusters), which
// reproduces the dense algorithm's tie-break order exactly.

import (
	"context"
	"slices"
	"sync"

	"repro/internal/bitvec"
)

// PairStatsRecorder is optionally implemented by Options.Clock; when it is,
// the distributor reports how many similarity pairs were generated versus
// the dense bound, accumulated across the recursive hierarchy walk (by
// subtree workers concurrently, like RecordPhase).
type PairStatsRecorder interface {
	RecordSimilarityPairs(generated, dense int64)
}

// simCountTile bounds the cluster-index range one counting block touches:
// 4096 entries of counts (16 KiB of int32) plus the touched list stay
// L1-resident while the row's posting tails stream through. Rows over small
// n use a single block, which reduces to the untiled pass.
const simCountTile = 4096

// simScratch is the reusable per-worker state of the counting pass. counts
// is all-zero between rows (the emit loop resets every touched entry), and
// that invariant is preserved across pool cycles, so getSimScratch never
// re-zeroes it; a scratch abandoned mid-row (cancellation) must not be
// returned to the pool.
type simScratch struct {
	counts  []int32     // per-cluster weight accumulator, all-zero between rows
	touched []int32     // clusters with counts > 0 in the current block
	bits    []int32     // set-bit scratch for the current row's tag
	cur     []int32     // per-posting-list cursor past the current row index
	pos     []int32     // per-row-bit cursor of the tiled block walk
	pairs   []mergePair // per-shard output buffer
}

var simScratchPool = sync.Pool{New: func() any { return new(simScratch) }}

func getSimScratch(n, r int) *simScratch {
	s := simScratchPool.Get().(*simScratch)
	if cap(s.counts) < n {
		s.counts = make([]int32, n)
	} else {
		s.counts = s.counts[:n]
	}
	if cap(s.cur) < r {
		s.cur = make([]int32, r)
	} else {
		s.cur = s.cur[:r]
		for i := range s.cur {
			s.cur[i] = 0
		}
	}
	s.touched = s.touched[:0]
	s.bits = s.bits[:0]
	s.pairs = s.pairs[:0]
	return s
}

func putSimScratch(s *simScratch) { simScratchPool.Put(s) }

// simPostingsPool recycles the inverted-index storage of sparsePairs calls
// made outside a distribution run; the lists alias the index's backing, so
// the index is returned only after the last shard finishes reading posts.
var simPostingsPool = sync.Pool{New: func() any { return new(bitvec.PostingIndex) }}

// pairShards runs the pair-generation pass: every pair (i, j), i < j, whose
// tags share at least one "1" bit, with its similarity weight. Rows are
// sharded across workers; each shard holds its rows' pairs in row-major
// order, and the shards are appended to shards in row order, so their
// concatenation is the same row-major list at any worker count. The
// caller recycles each shard with putSimScratch once it has read it.
//
// The inverted index is built in ix and returned as posts, which the merge
// loop walks after every absorb; posts is nil when the row-scan generator
// ran instead of the counting pass (n ≤ 32 or crowded postings).
func pairShards(ctx context.Context, tagOf []bitvec.Vector, r, workers int, ix *bitvec.PostingIndex, shards []*simScratch) (_ []*simScratch, posts [][]int32, err error) {
	n := len(tagOf)
	if workers < 1 {
		workers = 1
	}
	if workers > n {
		workers = n
	}

	// The counting pass pays an r-length posting table per call; at the deep
	// recursion nodes, where only a handful of clusters remain, that table
	// dominates the n²/2 word-wide popcounts it would save. Scan rows
	// directly there. When tags are dense the counting pass also degrades to
	// O(Σ_b |P_b|²) single-bit increments, which can exceed the dense
	// engine's popcounts; estimate both and fall back likewise. Either
	// generator emits the identical weight ≥ 1 pair list, so the choice is
	// invisible to the plan.
	useCounting := false
	if n > 32 {
		posts = ix.Build(r, tagOf)
		var postWork int64
		for _, p := range posts {
			l := int64(len(p))
			postWork += l * (l - 1) / 2
		}
		denseWork := int64(n) * int64(n-1) / 2 * int64((r+63)/64)
		useCounting = postWork <= 4*denseWork
	}

	curLen := 0
	if useCounting {
		curLen = r
	} else {
		posts = nil
	}

	// The fan-out lives in its own function so this one shares no variables
	// with a goroutine closure: captured locals are forced to the heap on
	// every path, which would cost the single-worker steady state five
	// allocations per call (see TestAllocSparsePairsWarm).
	if workers <= 1 {
		s, err := simFill(ctx, tagOf, posts, useCounting, curLen, 0, n)
		if err != nil {
			return nil, nil, err
		}
		return append(shards, s), posts, nil
	}
	ps, err := simFillParallel(ctx, tagOf, posts, useCounting, curLen, n, workers)
	if err != nil {
		return nil, nil, err
	}
	return append(shards, ps...), posts, nil
}

// sparsePairs returns pairShards' pairs as one list in row-major order.
func sparsePairs(ctx context.Context, tagOf []bitvec.Vector, r, workers int) ([]mergePair, error) {
	ix := simPostingsPool.Get().(*bitvec.PostingIndex)
	defer simPostingsPool.Put(ix)
	var one [1]*simScratch
	shards, _, err := pairShards(ctx, tagOf, r, workers, ix, one[:0])
	if err != nil {
		return nil, err
	}
	total := 0
	for _, s := range shards {
		total += len(s.pairs)
	}
	pairs := make([]mergePair, 0, total)
	for _, s := range shards {
		pairs = append(pairs, s.pairs...)
		putSimScratch(s)
	}
	return pairs, nil
}

// simFillParallel shards the pair-generation pass over workers goroutines,
// one contiguous row range each. Shard outputs concatenate in row order.
func simFillParallel(ctx context.Context, tagOf []bitvec.Vector, posts [][]int32, useCounting bool, curLen, n, workers int) ([]*simScratch, error) {
	step := (n + workers - 1) / workers
	if step == 0 {
		return nil, nil
	}
	// Size the shard slices to the non-empty row ranges up front: the
	// workers index into them concurrently, so the headers must not be
	// re-sliced once the first goroutine is running.
	count := (n + step - 1) / step
	shards := make([]*simScratch, count)
	errs := make([]error, count)
	var wg sync.WaitGroup
	for w := 0; w < count; w++ {
		lo, hi := w*step, (w+1)*step
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			shards[w], errs[w] = simFill(ctx, tagOf, posts, useCounting, curLen, lo, hi)
		}(w, lo, hi)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			for _, s := range shards {
				if s != nil {
					putSimScratch(s)
				}
			}
			return nil, err
		}
	}
	return shards, nil
}

// simFill runs the pair-generation pass over rows [lo, hi). It is a
// top-level function rather than a closure inside sparsePairs so the
// single-worker path — the steady state on small machines — allocates no
// escaping func value. The returned scratch holds the shard's pairs; the
// caller copies them out and recycles it.
func simFill(ctx context.Context, tagOf []bitvec.Vector, posts [][]int32, useCounting bool, curLen, lo, hi int) (*simScratch, error) {
	n := len(tagOf)
	s := getSimScratch(n, curLen)
	for i := lo; i < hi; i++ {
		if ctx.Err() != nil {
			// s.counts is clean here (rows only dirty it mid-row), so
			// the scratch is safe to recycle.
			putSimScratch(s)
			return nil, ctx.Err()
		}
		ti := tagOf[i]
		if useCounting {
			s.bits = ti.AppendSetBits(s.bits[:0])
			// Skip every list to the entries after i (lists are
			// ascending and contain i itself). Rows ascend within a
			// shard, so each list's skip point only moves forward: a
			// monotone cursor replaces a per-(row, bit) binary search,
			// costing O(|p|) total advance per shard.
			for _, b := range s.bits {
				p := posts[b]
				c := s.cur[b]
				for int(c) < len(p) && p[c] <= int32(i) {
					c++
				}
				s.cur[b] = c
			}
			// Accumulate the row in j-blocks of simCountTile clusters:
			// each block confines the counts/touched writes to one
			// L1-resident window while the posting tails stream through
			// in order. Blocks ascend and each block's touched set is
			// sorted before emitting, so the concatenation reproduces
			// the fully sorted row order byte for byte; when the row's
			// tail fits one block this is exactly the untiled pass.
			s.pos = s.pos[:0]
			for _, b := range s.bits {
				s.pos = append(s.pos, s.cur[b])
			}
			for jLo := i + 1; jLo < n; jLo += simCountTile {
				jHi := int32(min(jLo+simCountTile, n))
				s.touched = s.touched[:0]
				for k, b := range s.bits {
					p := posts[b]
					c := s.pos[k]
					for int(c) < len(p) && p[c] < jHi {
						j := p[c]
						if s.counts[j] == 0 {
							s.touched = append(s.touched, j)
						}
						s.counts[j]++
						c++
					}
					s.pos[k] = c
				}
				slices.Sort(s.touched)
				for _, j := range s.touched {
					s.pairs = append(s.pairs, mergePair{dot: int64(s.counts[j]), a: int32(i), b: j})
					s.counts[j] = 0
				}
			}
		} else {
			for j := i + 1; j < n; j++ {
				if w := int64(ti.AndPopCount(tagOf[j])); w > 0 {
					s.pairs = append(s.pairs, mergePair{dot: w, a: int32(i), b: int32(j)})
				}
			}
		}
	}
	// The caller copies s.pairs out and returns the scratch.
	return s, nil
}

// tagOverlapPairs returns every chunk pair sharing at least one tag bit, in
// row-major order — the conservative dependence approximation, routed
// through the same inverted index as the similarity seeding.
func tagOverlapPairs(tagOf []bitvec.Vector, r int) [][2]int {
	pairs, err := sparsePairs(context.Background(), tagOf, r, 1)
	if err != nil { // unreachable: background ctx never cancels
		panic("core: " + err.Error())
	}
	out := make([][2]int, len(pairs))
	for i, p := range pairs {
		out[i] = [2]int{int(p.a), int(p.b)}
	}
	return out
}
