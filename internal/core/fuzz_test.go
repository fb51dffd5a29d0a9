package core

import (
	"math/rand"
	"testing"

	"repro/internal/tags"
)

// FuzzBalanceMatchesReference holds the tree-driven balance loop to the
// reference loop on fuzzed shapes. The arguments decode into a generator
// seed and a shape: tag width, chunk count, cluster count, the share of
// chunks skewed onto cluster 0 (which then donates for many rounds), tag
// density, big and empty chunk cadences, the balance threshold, the
// widened slack RebalanceClusters sets, and per-cluster weights.
func FuzzBalanceMatchesReference(f *testing.F) {
	// A long single-donor tenure: 90% of 400 sparse chunks on cluster 0.
	f.Add(int64(1), uint16(256), uint16(400), uint8(8), uint8(230), uint8(3), uint8(0), uint8(0), uint8(10), uint8(0), []byte{0})
	// Repeated splits under one donor: every fourth chunk is big, and one
	// tenure splits six times; the second keep outgrows the trees.
	f.Add(int64(5), uint16(64), uint16(30), uint8(8), uint8(200), uint8(12), uint8(4), uint8(0), uint8(10), uint8(0), []byte{0, 1})
	// Empty chunks: every third chunk has no iterations.
	f.Add(int64(3), uint16(32), uint16(120), uint8(6), uint8(128), uint8(16), uint8(0), uint8(3), uint8(10), uint8(2), []byte{1, 0, 2})
	// A top-dot member too big to move whole while lower-dot ones fit.
	f.Add(int64(4), uint16(16), uint16(60), uint8(4), uint8(180), uint8(40), uint8(6), uint8(0), uint8(10), uint8(0), []byte{0})
	f.Fuzz(func(t *testing.T, seed int64, width, chunks uint16, clusters, skew, density, bigEvery, emptyEvery, thresh, slack uint8, weights []byte) {
		r := max(1, int(width%1025))
		n := max(1, int(chunks%401))
		k := max(1, int(clusters%65))
		rr := rand.New(rand.NewSource(seed))
		groups := make([][]*tags.IterationChunk, k)
		for _, ch := range equivChunks(rr, r, n, float64(density)/255, int(bigEvery%32), int(emptyEvery%16)) {
			g := rr.Intn(k)
			if rr.Intn(255) < int(skew) {
				g = 0
			}
			groups[g] = append(groups[g], ch)
		}
		w := unitWeights(k)
		for i := range w {
			if len(weights) > 0 {
				w[i] += int64(weights[i%len(weights)] % 4)
			}
		}
		opts := Options{BalanceThreshold: float64(thresh%101) / 100, slackExtra: int64(slack % 16)}
		diff, err := balanceBoth(opts, r, groups, w)
		if err != nil {
			t.Fatal(err)
		}
		if diff != "" {
			t.Fatalf("r=%d n=%d k=%d weights=%v opts=%+v: %s", r, n, k, w, opts, diff)
		}
	})
}

// FuzzMergeMatchesReference holds the merge loop — the seed run in pop
// order, the push heap, the posting-driven re-pushes and the zero-weight
// drain — to the dense reference merge on fuzzed shapes. The arguments
// decode into a generator seed, tag width, chunk count, tag density,
// singleton or grouped starting clusters, the target cluster count and the
// worker count of the similarity pass.
func FuzzMergeMatchesReference(f *testing.F) {
	// Many equal dots: 300 chunks over 8-bit tags, so long seed runs share
	// a dot and the counting sort's stable tie order decides the pops.
	f.Add(int64(1), uint16(8), uint16(300), uint8(64), false, uint8(3), uint8(1))
	// All-zero tags: no seed at all; the merge is a pure drain.
	f.Add(int64(2), uint16(64), uint16(120), uint8(0), false, uint8(6), uint8(1))
	// Dense tags: crowded postings, so the row scan seeds the queue and the
	// merge scans the live clusters (no posting lists).
	f.Add(int64(3), uint16(96), uint16(80), uint8(230), false, uint8(5), uint8(2))
	// Grouped clusters, as RebalanceClusters hands them in.
	f.Add(int64(4), uint16(300), uint16(250), uint8(6), true, uint8(16), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, width, chunks uint16, density uint8, grouped bool, k, workers uint8) {
		r := max(1, int(width%1025))
		n := max(1, int(chunks%401))
		rr := rand.New(rand.NewSource(seed))
		groups := randomGroups(rr, equivChunks(rr, r, n, float64(density)/255, 0, 0), grouped)
		kk := 1 + int(k)%len(groups)
		w := 1 + int(workers%4)
		diff, err := mergeBoth(r, w, kk, groups)
		if err != nil {
			t.Fatal(err)
		}
		if diff != "" {
			t.Fatalf("r=%d n=%d grouped=%v k=%d workers=%d: %s", r, len(groups), grouped, kk, w, diff)
		}
	})
}
