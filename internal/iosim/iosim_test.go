package iosim

import (
	"context"
	"testing"

	"repro/internal/cache"
	"repro/internal/chunking"
	"repro/internal/hierarchy"
	"repro/internal/itset"
	"repro/internal/polyhedral"
)

// tinyTree builds a 1-storage/2-IO/4-client hierarchy with the given cache
// capacities (in chunks).
func tinyTree(l3, l2, l1 int) *hierarchy.Tree {
	return hierarchy.NewLayered(
		hierarchy.LayerSpec{Count: 1, CacheChunks: l3, Label: "SN"},
		hierarchy.LayerSpec{Count: 2, CacheChunks: l2, Label: "IO"},
		hierarchy.LayerSpec{Count: 4, CacheChunks: l1, Label: "CN"},
	)
}

// scanProgram builds a 1-D sequential scan over n elements with elemB-byte
// elements and the given chunk size.
func scanProgram(n, elemB, chunkB int64) Program {
	nest := polyhedral.NewNest("scan", []int64{0}, []int64{n - 1})
	data := chunking.NewDataSpace(chunkB, chunking.Array{Name: "A", Dims: []int64{n}, ElemSize: elemB})
	return Program{
		Nest: nest,
		Refs: []polyhedral.Ref{polyhedral.SimpleRef(0, 1, []int{0}, []int64{0}, polyhedral.Read)},
		Data: data,
	}
}

// blockAssign splits [0, total) contiguously over k clients.
func blockAssign(total int64, k int) Assignment {
	asg := make(Assignment, k)
	per := total / int64(k)
	for c := 0; c < k; c++ {
		lo := int64(c) * per
		hi := lo + per
		if c == k-1 {
			hi = total
		}
		asg[c] = []Block{{Set: itset.Interval(lo, hi)}}
	}
	return asg
}

func TestRunValidation(t *testing.T) {
	tree := tinyTree(8, 8, 8)
	prog := scanProgram(64, 8, 32)
	if _, err := Run(nil, prog, make(Assignment, 4), DefaultParams()); err == nil {
		t.Error("nil tree accepted")
	}
	if _, err := Run(tree, prog, make(Assignment, 3), DefaultParams()); err == nil {
		t.Error("wrong-size assignment accepted")
	}
	bad := prog
	bad.Refs = nil
	if _, err := Run(tree, bad, make(Assignment, 4), DefaultParams()); err == nil {
		t.Error("empty refs accepted")
	}
	badRef := prog
	badRef.Refs = []polyhedral.Ref{polyhedral.SimpleRef(5, 1, []int{0}, []int64{0}, polyhedral.Read)}
	if _, err := Run(tree, badRef, make(Assignment, 4), DefaultParams()); err == nil {
		t.Error("out-of-range array accepted")
	}
}

func TestAllIterationsExecute(t *testing.T) {
	tree := tinyTree(16, 16, 16)
	prog := scanProgram(100, 8, 32)
	asg := blockAssign(100, 4)
	m, err := Run(tree, prog, asg, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if m.Iterations != 100 {
		t.Fatalf("Iterations = %d, want 100", m.Iterations)
	}
	if m.ExecTimeMS() <= 0 || m.IOLatencyMS() <= 0 {
		t.Fatal("non-positive times")
	}
	if m.IOLatencyMS() > m.ExecTimeMS() {
		t.Fatal("I/O latency exceeds execution time")
	}
}

func TestColdMissesGoToDisk(t *testing.T) {
	tree := tinyTree(1000, 1000, 1000)
	prog := scanProgram(64, 8, 32) // 16 chunks
	asg := blockAssign(64, 4)
	m, err := Run(tree, prog, asg, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	// Every distinct chunk must be read from disk exactly once (cold
	// misses only; capacity is ample, and no two clients share a chunk in
	// a contiguous split of a sequential scan with chunk-aligned blocks).
	if m.DiskReads != 16 {
		t.Fatalf("DiskReads = %d, want 16", m.DiskReads)
	}
	// Accesses at L1 = 64 iterations × 1 ref.
	if got := m.StatsL(1).Accesses; got != 64 {
		t.Fatalf("L1 accesses = %d, want 64", got)
	}
	// L1 misses = 16 (one per chunk) since each client scans its own range.
	if got := m.StatsL(1).Misses(); got != 16 {
		t.Fatalf("L1 misses = %d, want 16", got)
	}
	// All 16 propagate to L2 and L3.
	if got := m.StatsL(2).Accesses; got != 16 {
		t.Fatalf("L2 accesses = %d, want 16", got)
	}
	if got := m.StatsL(3).Accesses; got != 16 {
		t.Fatalf("L3 accesses = %d, want 16", got)
	}
	if m.MissRateL(2) != 1 || m.MissRateL(3) != 1 {
		t.Fatal("cold L2/L3 miss rates should be 1")
	}
}

func TestRereadHitsInL1(t *testing.T) {
	tree := tinyTree(1000, 1000, 1000)
	prog := scanProgram(64, 8, 32)
	// Client 0 scans everything twice; others idle.
	asg := Assignment{
		{{Set: itset.Interval(0, 64)}, {Set: itset.Interval(0, 64)}},
		nil, nil, nil,
	}
	m, err := Run(tree, prog, asg, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if m.DiskReads != 16 {
		t.Fatalf("DiskReads = %d, want 16 (second pass cached)", m.DiskReads)
	}
	// Second pass: all 64 accesses hit L1.
	st := m.StatsL(1)
	if st.Hits != 64+48 { // first pass: 48 intra-chunk hits; second pass: 64
		t.Fatalf("L1 hits = %d, want 112", st.Hits)
	}
}

func TestSharedCacheConstructiveSharing(t *testing.T) {
	// Clients 0 and 1 share an I/O cache. If both read the same chunks,
	// the second reader hits in L2 (constructive sharing). If instead two
	// clients that do NOT share L2 read the same data, both must go to L3.
	tree := tinyTree(1000, 1000, 2) // tiny L1 forces L2 traffic
	prog := scanProgram(64, 8, 32)
	whole := itset.Interval(0, 64)

	// Case A: sharers under one I/O node.
	asgA := Assignment{{{Set: whole}}, {{Set: whole}}, nil, nil}
	mA, err := Run(tree, prog, asgA, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	// Case B: clients under different I/O nodes.
	asgB := Assignment{{{Set: whole}}, nil, {{Set: whole}}, nil}
	mB, err := Run(tinyTree(1000, 1000, 2), prog, asgB, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if mA.StatsL(2).Hits <= mB.StatsL(2).Hits {
		t.Fatalf("L2 hits: sharers %d should exceed non-sharers %d",
			mA.StatsL(2).Hits, mB.StatsL(2).Hits)
	}
	// Both cases share the single L3, so disk reads match; the benefit of
	// L2 affinity must show up as lower I/O latency instead.
	if mA.DiskReads > mB.DiskReads {
		t.Fatalf("disk reads: sharers %d should not exceed non-sharers %d",
			mA.DiskReads, mB.DiskReads)
	}
	if mA.IOLatencyMS() >= mB.IOLatencyMS() {
		t.Fatalf("I/O latency: sharers %.3f should beat non-sharers %.3f",
			mA.IOLatencyMS(), mB.IOLatencyMS())
	}
}

func TestCapacityPressureIncreasesMisses(t *testing.T) {
	prog := scanProgram(512, 8, 32) // 128 chunks
	asg := Assignment{
		{{Set: itset.Interval(0, 512)}, {Set: itset.Interval(0, 512)}},
		nil, nil, nil,
	}
	big, err := Run(tinyTree(1000, 1000, 1000), prog, asg, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	small, err := Run(tinyTree(1000, 1000, 8), prog, asg, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if small.StatsL(1).Hits >= big.StatsL(1).Hits {
		t.Fatalf("small L1 should hit less: %d vs %d", small.StatsL(1).Hits, big.StatsL(1).Hits)
	}
	if small.IOLatencyMS() <= big.IOLatencyMS() {
		t.Fatal("smaller cache should cost more I/O time")
	}
}

func TestWritesCauseWritebacks(t *testing.T) {
	tree := tinyTree(4, 4, 4) // small caches force dirty evictions
	n := int64(256)
	nest := polyhedral.NewNest("wr", []int64{0}, []int64{n - 1})
	data := chunking.NewDataSpace(32, chunking.Array{Name: "A", Dims: []int64{n}, ElemSize: 8})
	prog := Program{
		Nest: nest,
		Refs: []polyhedral.Ref{polyhedral.SimpleRef(0, 1, []int{0}, []int64{0}, polyhedral.Write)},
		Data: data,
	}
	m, err := Run(tree, prog, blockAssign(n, 4), DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if m.DiskWritebacks == 0 {
		t.Fatal("dirty evictions produced no writebacks")
	}
}

func TestExplicitBlockOrderMatters(t *testing.T) {
	// An explicit reversed order visits the same chunks (same disk reads).
	tree := tinyTree(1000, 1000, 1000)
	prog := scanProgram(64, 8, 32)
	fwd := Assignment{{{Set: itset.Interval(0, 64)}}, nil, nil, nil}
	rev := make([]int64, 64)
	for i := range rev {
		rev[i] = int64(63 - i)
	}
	revAsg := Assignment{{{Explicit: rev}}, nil, nil, nil}
	mF, err := Run(tree, prog, fwd, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	mR, err := Run(tinyTree(1000, 1000, 1000), prog, revAsg, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if mF.DiskReads != mR.DiskReads {
		t.Fatalf("disk reads differ: %d vs %d", mF.DiskReads, mR.DiskReads)
	}
	if mF.Iterations != mR.Iterations {
		t.Fatal("iteration counts differ")
	}
	// Reverse order breaks the disk's sequential-stripe optimization.
	if mR.IOLatencyMS() < mF.IOLatencyMS() {
		t.Fatal("reverse scan should not be faster than forward scan")
	}
}

func TestDeterminism(t *testing.T) {
	tree1 := tinyTree(16, 16, 4)
	tree2 := tinyTree(16, 16, 4)
	prog := scanProgram(200, 8, 32)
	asg := blockAssign(200, 4)
	m1, err := Run(tree1, prog, asg, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Run(tree2, prog, asg, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if m1.ExecTimeMS() != m2.ExecTimeMS() || m1.DiskReads != m2.DiskReads {
		t.Fatal("simulation is not deterministic")
	}
	for l := 1; l <= 3; l++ {
		if m1.StatsL(l) != m2.StatsL(l) {
			t.Fatalf("L%d stats differ", l)
		}
	}
}

func TestMetricsAggregation(t *testing.T) {
	m := &Metrics{
		Height:       2,
		LevelStats:   map[int]cache.Stats{2: {Accesses: 10, Hits: 5}},
		ClientIOMS:   []float64{1, 3, 2},
		ClientExecMS: []float64{4, 9, 5},
	}
	if m.MissRateL(1) != 0.5 {
		t.Fatalf("MissRateL(1) = %v", m.MissRateL(1))
	}
	if m.IOLatencyMS() != 3 || m.ExecTimeMS() != 9 {
		t.Fatal("max aggregation wrong")
	}
	var empty Metrics
	if empty.IOLatencyMS() != 0 || empty.ExecTimeMS() != 0 {
		t.Fatal("empty metrics should be zero")
	}
}

func TestAssignmentTotalIterations(t *testing.T) {
	asg := Assignment{
		{{Set: itset.Interval(0, 10)}, {Explicit: []int64{1, 2, 3}}},
		{{Set: itset.Interval(5, 8)}},
	}
	if asg.TotalIterations() != 16 {
		t.Fatalf("TotalIterations = %d", asg.TotalIterations())
	}
}

func TestCachelessDummyRootPassesThrough(t *testing.T) {
	// Multiple storage nodes -> dummy root without a cache; the simulation
	// must still work and derive one disk per storage node.
	tree := hierarchy.NewLayered(
		hierarchy.LayerSpec{Count: 2, CacheChunks: 100, Label: "SN"},
		hierarchy.LayerSpec{Count: 4, CacheChunks: 100, Label: "IO"},
		hierarchy.LayerSpec{Count: 8, CacheChunks: 100, Label: "CN"},
	)
	prog := scanProgram(128, 8, 32)
	m, err := Run(tree, prog, blockAssign(128, 8), DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if m.Iterations != 128 {
		t.Fatalf("Iterations = %d", m.Iterations)
	}
	if m.DiskReads == 0 {
		t.Fatal("no disk reads")
	}
}

func TestNoWriteAllocate(t *testing.T) {
	tree := tinyTree(100, 100, 100)
	n := int64(64)
	nest := polyhedral.NewNest("wr", []int64{0}, []int64{n - 1})
	data := chunking.NewDataSpace(32, chunking.Array{Name: "A", Dims: []int64{n}, ElemSize: 8})
	prog := Program{
		Nest: nest,
		Refs: []polyhedral.Ref{polyhedral.SimpleRef(0, 1, []int{0}, []int64{0}, polyhedral.Write)},
		Data: data,
	}
	p := DefaultParams()
	p.Writes = WriteThrough
	m, err := Run(tree, prog, blockAssign(n, 4), p)
	if err != nil {
		t.Fatal(err)
	}
	// Write misses bypass the caches entirely: no disk reads, all
	// writebacks.
	if m.DiskReads != 0 {
		t.Fatalf("DiskReads = %d, want 0 under write-through", m.DiskReads)
	}
	if m.DiskWritebacks == 0 {
		t.Fatal("write-through produced no disk writes")
	}
	// The default no-fetch allocate policy also avoids disk reads but
	// caches the chunks locally.
	p.Writes = WriteAllocateNoFetch
	m2, err := Run(tinyTree(100, 100, 100), prog, blockAssign(n, 4), p)
	if err != nil {
		t.Fatal(err)
	}
	if m2.DiskReads != 0 {
		t.Fatalf("DiskReads = %d, want 0 under allocate-no-fetch", m2.DiskReads)
	}
	// Fetch-on-write reads every chunk once.
	p.Writes = WriteAllocateFetch
	m3, err := Run(tinyTree(100, 100, 100), prog, blockAssign(n, 4), p)
	if err != nil {
		t.Fatal(err)
	}
	if m3.DiskReads == 0 {
		t.Fatal("fetch-on-write produced no disk reads")
	}
}

func TestFabricTooShortRejected(t *testing.T) {
	tree := tinyTree(8, 8, 8)
	prog := scanProgram(16, 8, 32)
	p := DefaultParams()
	p.Fabric = nil
	// Default fabric sized automatically: OK.
	if _, err := Run(tree, prog, blockAssign(16, 4), p); err != nil {
		t.Fatal(err)
	}
}

func TestRunCtxCanceled(t *testing.T) {
	tree := tinyTree(16, 16, 16)
	n := int64(4 * ctxCheckInterval) // enough steps to pass a check
	prog := scanProgram(n, 8, 32)
	asg := blockAssign(n, 4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunCtx(ctx, tree, prog, asg, DefaultParams()); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// A live context still runs to completion.
	m, err := RunCtx(context.Background(), tree, prog, asg, DefaultParams())
	if err != nil || m.Iterations != n {
		t.Fatalf("uncancelled run: m=%v err=%v", m, err)
	}
}

func TestMaxIterationsTruncates(t *testing.T) {
	tree := tinyTree(16, 16, 16)
	prog := scanProgram(100, 8, 32)
	asg := blockAssign(100, 4)
	p := DefaultParams()
	p.MaxIterations = 10
	m, err := Run(tree, prog, asg, p)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Truncated {
		t.Fatal("capped run not marked Truncated")
	}
	if m.Iterations < p.MaxIterations || m.Iterations >= 100 {
		t.Fatalf("Iterations = %d, want in [%d, 100)", m.Iterations, p.MaxIterations)
	}
	// An uncapped run is unaffected.
	m, err = Run(tree, prog, asg, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if m.Truncated || m.Iterations != 100 {
		t.Fatalf("uncapped run: Truncated=%v Iterations=%d", m.Truncated, m.Iterations)
	}
	// A cap above the total iteration count does not truncate.
	p.MaxIterations = 1000
	m, err = Run(tree, prog, asg, p)
	if err != nil {
		t.Fatal(err)
	}
	if m.Truncated || m.Iterations != 100 {
		t.Fatalf("loose cap: Truncated=%v Iterations=%d", m.Truncated, m.Iterations)
	}
}
