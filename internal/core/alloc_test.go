package core

// Zero-alloc steady-state gates (the ci.sh alloc-gate job runs every
// TestAlloc* with GOGC=off). Each test disables GC for its measurement so
// sync.Pool eviction cannot fake a regression under a default GOGC run.

import (
	"context"
	"math/rand"
	"runtime/debug"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/race"
)

// allocRows builds a contour-shaped tag set: the set bits of n sparse
// tags of width r.
func allocRows(rr *rand.Rand, r, n int) [][]int32 {
	rows := make([][]int32, n)
	for i := range rows {
		v := bitvec.New(r)
		for k := 0; k < 6; k++ {
			v.Set(rr.Intn(r))
		}
		rows[i] = v.AppendSetBits(nil)
	}
	return rows
}

// TestAllocSparsePairsWarm: with a warm distScratch and warm per-worker
// scratch pool, single-worker pair generation and ordering allocate
// nothing — pairs land in the recycled seed run, the inverted index in the
// scratch's recycled posting tables.
func TestAllocSparsePairsWarm(t *testing.T) {
	if race.Enabled {
		t.Skip("race-mode sync.Pool drops Puts by design; the alloc gate runs without -race")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	rows := allocRows(rand.New(rand.NewSource(7)), 294, 253)
	scr := distScratchPool.Get().(*distScratch)
	defer distScratchPool.Put(scr)
	warm := func() {
		shards, err := pairShards(context.Background(), rows, 294, 1, &scr.postings, scr.shards)
		if err != nil {
			t.Fatal(err)
		}
		scr.popOrder(shards, 294)
	}
	warm()
	if allocs := testing.AllocsPerRun(50, warm); allocs != 0 {
		t.Fatalf("warm pairShards+popOrder allocates %v objects/op, want 0", allocs)
	}
}

// TestAllocDistributeWarmBound gates the whole distribution run's
// steady-state allocation count on a fixed workload. The survivors are the
// escaping results — the per-client member lists, their size tables, split
// chunk storage and the returned assignment — so the count is a workload
// constant, not zero; the bound holds headroom over the measured value and
// exists to catch a pooled path regressing to per-call allocation (which
// shows up as hundreds of extra objects, not tens).
func TestAllocDistributeWarmBound(t *testing.T) {
	if race.Enabled {
		t.Skip("race-mode sync.Pool drops Puts by design; the alloc gate runs without -race")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	rr := rand.New(rand.NewSource(3))
	chunks, tree := randomWorkload(rr, 294, 253, 0.02)
	opts := DefaultOptions()
	opts.Workers = 1
	run := func() {
		if _, err := Distribute(cloneChunks(chunks), tree, opts); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm the pools
	allocs := testing.AllocsPerRun(20, run)
	// cloneChunks contributes ~2 allocs per chunk on top of the run itself;
	// the distribution run proper measures ~700 on the contour benchmark
	// shape (see BENCH.json). Anything past the bound means a recycled
	// path started allocating per call.
	const bound = 2500
	if allocs > bound {
		t.Fatalf("warm Distribute allocates %v objects/op, want <= %d", allocs, bound)
	}
}
