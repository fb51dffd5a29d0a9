package core

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/hierarchy"
	"repro/internal/itset"
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
	// Several clusters above their upper limits, as a repair hands them
	// over: one heavy weight leaves seven even clusters over theirs, so
	// the donor changes almost every round. One-round tenures scan their
	// donor, and a donor that serves again in a row is indexed.
	f.Add(int64(6), uint16(512), uint16(400), uint8(8), uint8(0), uint8(2), uint8(0), uint8(0), uint8(10), uint8(0), []byte{3, 0, 0, 0, 0, 0, 0, 0})
	// The same under a repair's relaxed threshold and widened slack, with
	// big and empty chunks.
	f.Add(int64(7), uint16(256), uint16(300), uint8(12), uint8(0), uint8(3), uint8(5), uint8(7), uint8(33), uint8(8), []byte{0, 0, 0, 3})
	// Two heavy weights among many clusters over narrow tags: equal dots
	// everywhere, so the first position must win in scans and trees alike,
	// and chunks split in both kinds of round.
	f.Add(int64(8), uint16(24), uint16(400), uint8(24), uint8(0), uint8(20), uint8(9), uint8(0), uint8(5), uint8(2), []byte{3, 0, 0, 0, 0, 0, 3, 0, 0, 0, 0, 0})
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
	// Dense tags: every posting list is crowded, so the counting pass sums
	// long lists and an absorb's re-pushes walk them too.
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

// FuzzScheduleMatchesReference holds the Figure 15 schedule, which scores
// each candidate by looking its set bits up in dense views, to the
// reference schedule's dense AndPopCounts on fuzzed assignments. The
// arguments decode into a generator seed, the I/O group count (each group
// gets 1–4 clients), tag width and density, the most chunks a client
// holds, the odds of an empty client, of a chunk split into two pieces
// sharing its tag, and of an empty chunk, α and β, each one of
// {0, 0.25, 0.5, 1}, and the worker count (1–4) the I/O groups run on.
func FuzzScheduleMatchesReference(f *testing.F) {
	// The paper's weights over sparse tags, every client busy.
	f.Add(int64(1), uint8(4), uint16(64), uint8(12), uint8(12), uint8(0), uint8(0), uint8(0), uint8(2), uint8(2), uint8(0))
	// Many equal scores: 2-bit tags, split pieces and empty chunks, so
	// ties fall to chunkKey and then to position.
	f.Add(int64(2), uint8(3), uint16(2), uint8(128), uint8(20), uint8(3), uint8(4), uint8(5), uint8(2), uint8(2), uint8(1))
	// All bits set, horizontal reuse only.
	f.Add(int64(3), uint8(2), uint16(300), uint8(255), uint8(8), uint8(0), uint8(0), uint8(0), uint8(3), uint8(0), uint8(2))
	// Empty clients, vertical reuse only, zero tags.
	f.Add(int64(4), uint8(5), uint16(130), uint8(0), uint8(6), uint8(2), uint8(3), uint8(0), uint8(0), uint8(3), uint8(3))
	// Unequal weights: a swapped α and β changes the picks.
	f.Add(int64(5), uint8(3), uint16(40), uint8(40), uint8(10), uint8(0), uint8(0), uint8(0), uint8(3), uint8(1), uint8(1))
	alphas := [4]float64{0, 0.25, 0.5, 1}
	f.Fuzz(func(t *testing.T, seed int64, groups uint8, width uint16, density, most, emptyClient, splitOdds, emptyChunk, alpha, beta, workers uint8) {
		r := 1 + int(width%300)
		rr := rand.New(rand.NewSource(seed))
		root := &hierarchy.Node{CacheChunks: 16}
		clients := 0
		for range 1 + int(groups%6) {
			io := &hierarchy.Node{CacheChunks: 8}
			for range 1 + rr.Intn(4) {
				io.Children = append(io.Children, &hierarchy.Node{CacheChunks: 4})
				clients++
			}
			root.Children = append(root.Children, io)
		}
		tree := hierarchy.Build(root)
		assign := make([][]*tags.IterationChunk, clients)
		var cursor int64
		for c := range assign {
			if emptyClient > 0 && rr.Intn(int(emptyClient)+2) == 0 {
				continue
			}
			for range rr.Intn(1 + int(most%32)) {
				tag := bitvec.New(r)
				for b := range r {
					if rr.Intn(255) < int(density) {
						tag.Set(b)
					}
				}
				cnt := int64(1 + rr.Intn(40))
				if emptyChunk > 0 && rr.Intn(int(emptyChunk)+2) == 0 {
					cnt = 0
				}
				ic := &tags.IterationChunk{Tag: tag.Sparse(), Iters: itset.Interval(cursor, cursor+cnt), Nest: rr.Intn(2)}
				cursor += cnt
				if splitOdds > 0 && cnt > 1 && rr.Intn(int(splitOdds)+2) == 0 {
					a, b := ic.Split(1 + rr.Int63n(cnt-1))
					assign[c] = append(assign[c], a)
					other := rr.Intn(clients)
					assign[other] = append(assign[other], b)
					continue
				}
				assign[c] = append(assign[c], ic)
			}
		}
		opts := ScheduleOptions{Alpha: alphas[alpha%4], Beta: alphas[beta%4], Workers: 1 + int(workers%4)}
		got, err := ScheduleCtx(context.Background(), assign, tree, opts)
		if err != nil {
			t.Fatal(err)
		}
		want, err := scheduleRef(context.Background(), assign, tree, opts)
		if err != nil {
			t.Fatal(err)
		}
		for c := range want {
			if len(got[c]) != len(want[c]) {
				t.Fatalf("r=%d clients=%d opts=%+v: client %d got %d chunks, want %d", r, clients, opts, c, len(got[c]), len(want[c]))
			}
			for i := range want[c] {
				if got[c][i] != want[c][i] {
					t.Fatalf("r=%d clients=%d opts=%+v: client %d pick %d is %v, want %v", r, clients, opts, c, i, got[c][i], want[c][i])
				}
			}
		}
	})
}
