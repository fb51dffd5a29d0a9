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
	"math/bits"
	"sync"

	"repro/internal/bitvec"
	"repro/internal/join"
)

// PairStatsRecorder is optionally implemented by Options.Clock; when it is,
// the distributor reports how many similarity pairs were generated versus
// the dense bound, accumulated across the recursive hierarchy walk (by
// subtree workers concurrently, like RecordPhase).
type PairStatsRecorder interface {
	RecordSimilarityPairs(generated, dense int64)
}

// simCountTile bounds the cluster-index range one counting block touches:
// 4096 entries of counts (16 KiB of int32) plus the block's seen bitmap
// stay L1-resident while the row's posting tails stream through. Rows over
// small n use a single block, which reduces to the untiled pass.
const simCountTile = 4096

// simScratch is the reusable per-worker state of the counting pass. counts
// and seen are all-zero between rows (the emit loop resets every entry it
// reads), and that invariant is preserved across pool cycles, so
// getSimScratch never re-zeroes them.
type simScratch struct {
	counts []int32                   // per-cluster weight accumulator
	seen   [simCountTile / 64]uint64 // the block's clusters with counts > 0
	pairs  []mergePair               // per-shard output buffer
}

var simScratchPool = sync.Pool{New: func() any { return new(simScratch) }}

func getSimScratch(n int) *simScratch {
	s := simScratchPool.Get().(*simScratch)
	if cap(s.counts) < n {
		s.counts = make([]int32, n)
	} else {
		s.counts = s.counts[:n]
	}
	s.pairs = s.pairs[:0]
	return s
}

func putSimScratch(s *simScratch) { simScratchPool.Put(s) }

// pairShards runs the pair-generation pass: every pair (i, j), i < j, whose
// tags share at least one "1" bit, with its similarity weight. rows[i] is
// the ascending set bits of tag i, an r-bit tag. Rows are sharded across
// workers; each shard holds its rows' pairs in row-major order, and the
// shards are appended to shards in row order, so their concatenation is
// the same row-major list at any worker count. The caller recycles each
// shard with putSimScratch once it has read it.
//
// The inverted index is built in ix, which the merge loop walks after
// every absorb.
func pairShards(ctx context.Context, rows [][]int32, r, workers int, ix *bitvec.PostingIndex, shards []*simScratch) ([]*simScratch, error) {
	n := len(rows)
	flat, later := ix.Build(r, rows)
	// The fan-out lives in its own function so this one shares no variables
	// with a goroutine closure: captured locals are forced to the heap on
	// every path, which would cost the single-worker steady state
	// allocations per call (see TestAllocSparsePairsWarm).
	if workers <= 1 || n <= 1 {
		s, err := simFill(ctx, rows, flat, later, 0, n)
		if err != nil {
			return nil, err
		}
		return append(shards, s), nil
	}
	ps, err := simFillParallel(ctx, rows, flat, later, min(workers, n))
	if err != nil {
		return nil, err
	}
	return append(shards, ps...), nil
}

// sparsePairs returns pairShards' pairs as one list in row-major order.
func sparsePairs(ctx context.Context, rows [][]int32, r, workers int) ([]mergePair, error) {
	var ix bitvec.PostingIndex
	var one [1]*simScratch
	shards, err := pairShards(ctx, rows, r, workers, &ix, one[:0])
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
// one contiguous row range each. Shard outputs concatenate in row order. A
// shard's panic is re-raised here once every shard has returned.
func simFillParallel(ctx context.Context, rows [][]int32, flat []int32, later []bitvec.Span, workers int) ([]*simScratch, error) {
	n := len(rows)
	step := (n + workers - 1) / workers
	// Size the shard slices to the non-empty row ranges up front: the
	// workers index into them concurrently, so the headers must not be
	// re-sliced once the first goroutine is running.
	count := (n + step - 1) / step
	shards := make([]*simScratch, count)
	errs := make([]error, count)
	var (
		jp join.Panic
		wg sync.WaitGroup
	)
	for w := 0; w < count; w++ {
		lo, hi := w*step, min((w+1)*step, n)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer jp.Catch()
			shards[w], errs[w] = simFill(ctx, rows, flat, later, lo, hi)
		}()
	}
	wg.Wait()
	jp.Rethrow()
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

// simFill runs the pair-generation pass over rows [lo, hi), reading each
// row's tails — the later rows sharing each of its bits, as Build's later
// spans of flat give them — and consuming those spans as it goes. It is a
// top-level function rather than a closure inside pairShards so the
// single-worker path — the steady state on small machines — allocates no
// escaping func value. The returned scratch holds the shard's pairs; the
// caller copies them out and recycles it.
func simFill(ctx context.Context, rows [][]int32, flat []int32, later []bitvec.Span, lo, hi int) (*simScratch, error) {
	n := len(rows)
	s := getSimScratch(n)
	x := 0 // rows[i]'s spans start at later[x]
	for _, row := range rows[:lo] {
		x += len(row)
	}
	for i := lo; i < hi; i++ {
		if ctx.Err() != nil {
			// counts and seen are clean here (rows only dirty them
			// mid-row), so the scratch is safe to recycle.
			putSimScratch(s)
			return nil, ctx.Err()
		}
		tails := later[x : x+len(rows[i])]
		x += len(rows[i])
		// Accumulate the row in j-blocks of simCountTile clusters: each
		// block confines the counts/seen writes to one L1-resident window
		// while the tails stream through in order. The seen bitmap is read
		// in ascending order, so each block emits its pairs in ascending j
		// and the blocks concatenate to the row's row-major order.
		for jLo := i + 1; jLo < n; jLo += simCountTile {
			jHi := int32(min(jLo+simCountTile, n))
			top := 0 // the highest seen word the block set
			for t := range tails {
				sp := &tails[t]
				for ; sp.Lo < sp.Hi && flat[sp.Lo] < jHi; sp.Lo++ {
					j := flat[sp.Lo]
					s.counts[j]++
					d := int(j) - jLo
					s.seen[d>>6] |= 1 << (d & 63)
					top = max(top, d>>6)
				}
			}
			for w := 0; w <= top; w++ {
				for m := s.seen[w]; m != 0; m &= m - 1 {
					j := int32(jLo + w<<6 + bits.TrailingZeros64(m))
					s.pairs = append(s.pairs, mergePair{dot: int64(s.counts[j]), a: int32(i), b: j})
					s.counts[j] = 0
				}
				s.seen[w] = 0
			}
		}
	}
	// The caller copies s.pairs out and returns the scratch.
	return s, nil
}

// tagOverlapPairs returns every pair of r-bit tags, given as their set
// bits, that shares at least one bit, in row-major order — the
// conservative dependence approximation, routed through the same inverted
// index as the similarity seeding.
func tagOverlapPairs(rows [][]int32, r int) [][2]int {
	pairs, err := sparsePairs(context.Background(), rows, r, 1)
	if err != nil { // unreachable: background ctx never cancels
		panic("core: " + err.Error())
	}
	out := make([][2]int, len(pairs))
	for i, p := range pairs {
		out[i] = [2]int{int(p.a), int(p.b)}
	}
	return out
}
