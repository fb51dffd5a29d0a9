package iosim

import (
	"testing"

	"repro/internal/itset"
)

// TestExclusiveCachingSingleCopy verifies that under exclusive mode a hit
// at a shared cache removes the provider's copy: re-reading after an L1
// eviction round-trips between levels instead of duplicating.
func TestExclusiveCachingSingleCopy(t *testing.T) {
	tree := tinyTree(100, 100, 100)
	prog := scanProgram(64, 8, 32) // 16 chunks
	asg := Assignment{{{Set: itset.Interval(0, 64)}, {Set: itset.Interval(0, 64)}}, nil, nil, nil}

	p := DefaultParams()
	p.Exclusive = true
	m, err := Run(tree, prog, asg, p)
	if err != nil {
		t.Fatal(err)
	}
	// Under exclusive caching with ample capacity, the second pass hits in
	// L1 (the chunks were promoted there) and L2/L3 hold nothing.
	if m.DiskReads != 16 {
		t.Fatalf("DiskReads = %d, want 16", m.DiskReads)
	}
	if m.StatsL(2).Hits != 0 && m.StatsL(3).Hits != 0 {
		// With ample L1 nothing should ever be re-fetched from L2/L3.
		t.Fatalf("unexpected shared-cache hits: L2=%d L3=%d",
			m.StatsL(2).Hits, m.StatsL(3).Hits)
	}
}

// TestExclusiveIncreasesEffectiveCapacity is the Wong & Wilkes motivation:
// with L1 too small but L1+L2 big enough, exclusive caching holds the
// working set across the two levels while inclusive caching duplicates and
// thrashes.
func TestExclusiveIncreasesEffectiveCapacity(t *testing.T) {
	// 24-chunk working set; L1 = 8, L2 = 20: inclusive caching can keep at
	// most max(L1, L2) = 20 distinct chunks on the path; exclusive keeps
	// up to 28.
	prog := scanProgram(96, 8, 32) // 24 chunks
	asg := Assignment{
		{{Set: itset.Interval(0, 96)}, {Set: itset.Interval(0, 96)}, {Set: itset.Interval(0, 96)}},
		nil, nil, nil,
	}
	pInc := DefaultParams()
	mInc, err := Run(tinyTree(1, 20, 8), prog, asg, pInc)
	if err != nil {
		t.Fatal(err)
	}
	pExc := DefaultParams()
	pExc.Exclusive = true
	mExc, err := Run(tinyTree(1, 20, 8), prog, asg, pExc)
	if err != nil {
		t.Fatal(err)
	}
	if mExc.DiskReads >= mInc.DiskReads {
		t.Fatalf("exclusive disk reads %d should beat inclusive %d",
			mExc.DiskReads, mInc.DiskReads)
	}
}

// TestExclusivePreservesDirtyData checks that promotion carries the dirty
// bit so no writes are lost.
func TestExclusiveDirtyPromotion(t *testing.T) {
	tree := tinyTree(8, 8, 2)
	n := int64(128)
	prog := scanProgram(n, 8, 32)
	// Write pass then read pass by the same client.
	nest := prog.Nest
	_ = nest
	p := DefaultParams()
	p.Exclusive = true
	m, err := Run(tree, prog, blockAssign(n, 4), p)
	if err != nil {
		t.Fatal(err)
	}
	if m.Iterations != n {
		t.Fatalf("Iterations = %d", m.Iterations)
	}
}

// TestPrefetchStagesSequentialChunks verifies that prefetching loads
// read-ahead chunks into the top cache and reduces demand latency on a
// sequential scan.
func TestPrefetchSequentialScan(t *testing.T) {
	prog := scanProgram(256, 8, 32) // 64 chunks
	asg := Assignment{{{Set: itset.Interval(0, 256)}}, nil, nil, nil}

	base := DefaultParams()
	mBase, err := Run(tinyTree(100, 8, 8), prog, asg, base)
	if err != nil {
		t.Fatal(err)
	}
	pf := DefaultParams()
	pf.PrefetchDepth = 4
	mPf, err := Run(tinyTree(100, 8, 8), prog, asg, pf)
	if err != nil {
		t.Fatal(err)
	}
	if mPf.Prefetches == 0 {
		t.Fatal("no prefetches issued")
	}
	// Demand misses at L3 should drop: most chunks are staged before use.
	if mPf.StatsL(3).Hits <= mBase.StatsL(3).Hits {
		t.Fatalf("prefetching produced no extra L3 hits (%d vs %d)",
			mPf.StatsL(3).Hits, mBase.StatsL(3).Hits)
	}
	if mBase.Prefetches != 0 {
		t.Fatal("baseline issued prefetches")
	}
}

// TestPrefetchBoundedByDataSpace ensures read-ahead never runs past the
// last chunk.
func TestPrefetchBoundedByDataSpace(t *testing.T) {
	prog := scanProgram(32, 8, 32) // 8 chunks
	asg := Assignment{{{Set: itset.Interval(0, 32)}}, nil, nil, nil}
	p := DefaultParams()
	p.PrefetchDepth = 100 // far beyond the data space
	m, err := Run(tinyTree(100, 100, 100), prog, asg, p)
	if err != nil {
		t.Fatal(err)
	}
	total := m.DiskReads
	if total > 8+8 { // demand + at most one staging sweep
		t.Fatalf("disk reads %d indicate out-of-range prefetches", total)
	}
}

// TestSequenceBarrier verifies that RunSequence synchronizes clients
// between nests: no client starts nest 2 before the slowest finishes
// nest 1.
func TestSequenceBarrier(t *testing.T) {
	tree := tinyTree(100, 100, 100)
	prog := scanProgram(64, 8, 32)
	// Nest 1: client 0 does everything (slow); others idle.
	asg1 := Assignment{{{Set: itset.Interval(0, 64)}}, nil, nil, nil}
	// Nest 2: client 3 does everything.
	asg2 := Assignment{nil, nil, nil, {{Set: itset.Interval(0, 64)}}}
	m, err := RunSequence(tree, []Program{prog, prog}, []Assignment{asg1, asg2}, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	// Client 3's finish time must be at least client 0's (it waited for
	// the barrier, then did its own work).
	if m.ClientExecMS[3] <= m.ClientExecMS[0] {
		t.Fatalf("barrier violated: client3 %.2f <= client0 %.2f",
			m.ClientExecMS[3], m.ClientExecMS[0])
	}
	if m.Iterations != 128 {
		t.Fatalf("Iterations = %d", m.Iterations)
	}
}

// TestSequenceCachesPersist verifies inter-nest reuse: the second nest
// re-reading the same data hits the caches warmed by the first.
func TestSequenceCachesPersist(t *testing.T) {
	tree := tinyTree(100, 100, 100)
	prog := scanProgram(64, 8, 32)
	asg := Assignment{{{Set: itset.Interval(0, 64)}}, nil, nil, nil}
	m, err := RunSequence(tree, []Program{prog, prog}, []Assignment{asg, asg}, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if m.DiskReads != 16 {
		t.Fatalf("DiskReads = %d, want 16 (second nest fully cached)", m.DiskReads)
	}
}

// TestSequenceValidation exercises the error paths of RunSequence.
func TestSequenceValidation(t *testing.T) {
	tree := tinyTree(8, 8, 8)
	prog := scanProgram(16, 8, 32)
	if _, err := RunSequence(tree, nil, nil, DefaultParams()); err == nil {
		t.Error("empty sequence accepted")
	}
	other := scanProgram(16, 8, 32) // different data space pointer
	asg := blockAssign(16, 4)
	if _, err := RunSequence(tree, []Program{prog, other}, []Assignment{asg, asg}, DefaultParams()); err == nil {
		t.Error("mismatched data spaces accepted")
	}
	if _, err := RunSequence(tree, []Program{prog}, []Assignment{make(Assignment, 2)}, DefaultParams()); err == nil {
		t.Error("wrong-size assignment accepted")
	}
}

// TestCooperativeCachingPeerHits verifies that a sibling's cached chunk is
// served peer-to-peer under cooperative mode.
func TestCooperativeCachingPeerHits(t *testing.T) {
	tree := tinyTree(100, 100, 100)
	prog := scanProgram(64, 8, 32)
	// Client 0 reads everything; client 1 (same I/O node) then reads the
	// same data.
	asg := Assignment{
		{{Set: itset.Interval(0, 64)}},
		{{Set: itset.Interval(0, 64)}},
		nil, nil,
	}
	p := DefaultParams()
	p.Cooperative = true
	m, err := Run(tree, prog, asg, p)
	if err != nil {
		t.Fatal(err)
	}
	if m.PeerHits == 0 {
		t.Fatal("no cooperative peer hits")
	}
	// Without cooperation the same workload has zero peer hits.
	m2, err := Run(tinyTree(100, 100, 100), prog, asg, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if m2.PeerHits != 0 {
		t.Fatal("peer hits recorded without cooperative mode")
	}
}

// TestCooperativeOnlySiblingsProbed ensures clients under a different I/O
// node are not probed.
func TestCooperativeOnlySiblingsProbed(t *testing.T) {
	tree := tinyTree(100, 100, 100)
	prog := scanProgram(64, 8, 32)
	// Clients 0 and 2 are under different I/O nodes.
	asg := Assignment{
		{{Set: itset.Interval(0, 64)}},
		nil,
		{{Set: itset.Interval(0, 64)}},
		nil,
	}
	p := DefaultParams()
	p.Cooperative = true
	m, err := Run(tree, prog, asg, p)
	if err != nil {
		t.Fatal(err)
	}
	if m.PeerHits != 0 {
		t.Fatalf("peer hits across I/O groups: %d", m.PeerHits)
	}
}

func TestMetricsPercentilesAndImbalance(t *testing.T) {
	m := &Metrics{
		ClientIOMS:   []float64{1, 2, 3, 4},
		ClientExecMS: []float64{2, 4, 6, 8},
	}
	// Imbalance = (8-2)/5 = 1.2.
	if got := m.Imbalance(); got < 1.199 || got > 1.201 {
		t.Fatalf("Imbalance = %v", got)
	}
	var empty Metrics
	if empty.Imbalance() != 0 {
		t.Fatal("empty metrics should be zero")
	}
}
