package core

import (
	"cmp"
	"context"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/bitvec"
	"repro/internal/chunking"
	"repro/internal/hierarchy"
	"repro/internal/itset"
	"repro/internal/join"
	"repro/internal/polyhedral"
	"repro/internal/tags"
)

// figure6Chunks builds the paper's running example: the 8 iteration chunks
// of the Figure 6 fragment with chunk size d.
func figure6Chunks(d int64) []*tags.IterationChunk {
	m := 12 * d
	nest := polyhedral.NewNest("fig6", []int64{0}, []int64{8*d - 1})
	data := chunking.NewDataSpace(d, chunking.Array{Name: "A", Dims: []int64{m}, ElemSize: 1})
	refs := []polyhedral.Ref{
		polyhedral.SimpleRef(0, 1, []int{0}, []int64{0}, polyhedral.Write),
		{Array: 0, Exprs: []polyhedral.RefExpr{{Coeffs: []int64{1}, Mod: d}}},
		polyhedral.SimpleRef(0, 1, []int{0}, []int64{4 * d}, polyhedral.Read),
		polyhedral.SimpleRef(0, 1, []int{0}, []int64{2 * d}, polyhedral.Read),
	}
	return tags.Compute(nest, refs, data)
}

// figure7Tree is the example target: 1 storage, 2 I/O, 4 clients.
func figure7Tree() *hierarchy.Tree {
	return hierarchy.NewLayered(
		hierarchy.LayerSpec{Count: 1, CacheChunks: 64, Label: "SN"},
		hierarchy.LayerSpec{Count: 2, CacheChunks: 64, Label: "IO"},
		hierarchy.LayerSpec{Count: 4, CacheChunks: 64, Label: "CN"},
	)
}

// chunkIndexByMin identifies a chunk γ1..γ8 by its first iteration (γk
// covers [(k−1)d, kd)).
func chunkIndexByMin(c *tags.IterationChunk, d int64) int {
	return int(c.Iters.Min()/d) + 1
}

func TestFigure9Distribution(t *testing.T) {
	const d = 8
	chunks := figure6Chunks(d)
	if len(chunks) != 8 {
		t.Fatalf("expected 8 chunks, got %d", len(chunks))
	}
	tree := figure7Tree()
	out, err := DistributeCtx(context.Background(), chunks, tree, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 4 {
		t.Fatalf("got %d clients", len(out))
	}
	// Figure 9: each client holds exactly one odd-family or even-family
	// pair: {γ2,γ4},{γ6,γ8},{γ1,γ3},{γ5,γ7} (which pair lands on which
	// client is symmetric).
	wantPairs := map[[2]int]bool{
		{1, 3}: false, {5, 7}: false, {2, 4}: false, {6, 8}: false,
	}
	for ci, cl := range out {
		if len(cl) != 2 {
			t.Fatalf("client %d holds %d chunks, want 2", ci, len(cl))
		}
		a, b := chunkIndexByMin(cl[0], d), chunkIndexByMin(cl[1], d)
		if a > b {
			a, b = b, a
		}
		key := [2]int{a, b}
		seen, ok := wantPairs[key]
		if !ok {
			t.Fatalf("client %d holds unexpected pair γ%d,γ%d", ci, a, b)
		}
		if seen {
			t.Fatalf("pair γ%d,γ%d assigned twice", a, b)
		}
		wantPairs[key] = true
	}
	// First hierarchy level: the two I/O nodes must hold the odd family
	// and the even family.
	io0 := map[int]bool{}
	for _, c := range out[0] {
		io0[chunkIndexByMin(c, d)%2] = true
	}
	for _, c := range out[1] {
		io0[chunkIndexByMin(c, d)%2] = true
	}
	if len(io0) != 1 {
		t.Fatal("clients under IO0 mix odd and even families")
	}
}

func TestDistributePartitionsIterations(t *testing.T) {
	chunks := figure6Chunks(8)
	tree := figure7Tree()
	out, err := DistributeCtx(context.Background(), chunks, tree, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	var all itset.Set
	var total int64
	for _, cl := range out {
		for _, c := range cl {
			if !all.Intersect(c.Iters).IsEmpty() {
				t.Fatal("clients share iterations")
			}
			all = all.Union(c.Iters)
			total += c.Count()
		}
	}
	if total != 64 || all.Count() != 64 {
		t.Fatalf("distributed %d iterations, want 64", total)
	}
}

func TestDistributeBalanced(t *testing.T) {
	chunks := figure6Chunks(8)
	out, err := DistributeCtx(context.Background(), chunks, figure7Tree(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for ci, cl := range out {
		var n int64
		for _, c := range cl {
			n += c.Count()
		}
		if n != 16 {
			t.Fatalf("client %d has %d iterations, want 16", ci, n)
		}
	}
}

func TestDistributeEmptyInput(t *testing.T) {
	out, err := DistributeCtx(context.Background(), nil, figure7Tree(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, cl := range out {
		if len(cl) != 0 {
			t.Fatal("empty input produced chunks")
		}
	}
}

func TestDistributeValidation(t *testing.T) {
	if _, err := DistributeCtx(context.Background(), nil, nil, DefaultOptions()); err == nil {
		t.Error("nil tree accepted")
	}
	if _, err := DistributeCtx(context.Background(), nil, figure7Tree(), Options{BalanceThreshold: -0.1}); err == nil {
		t.Error("negative threshold accepted")
	}
	bad := []*tags.IterationChunk{
		{Tag: bitvec.New(4).Sparse(), Iters: itset.Interval(0, 1)},
		{Tag: bitvec.New(5).Sparse(), Iters: itset.Interval(1, 2)},
	}
	if _, err := DistributeCtx(context.Background(), bad, figure7Tree(), DefaultOptions()); err == nil {
		t.Error("inconsistent tag widths accepted")
	}
}

func TestDistributeSplitsWhenFewerChunksThanClients(t *testing.T) {
	// One big chunk across 4 clients: the chunk must be split.
	big := &tags.IterationChunk{Tag: bitvec.FromIndices(4, 0).Sparse(), Iters: itset.Interval(0, 100)}
	out, err := DistributeCtx(context.Background(), []*tags.IterationChunk{big}, figure7Tree(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for ci, cl := range out {
		var n int64
		for _, c := range cl {
			n += c.Count()
		}
		total += n
		if n == 0 {
			t.Fatalf("client %d received nothing", ci)
		}
		if n < 20 || n > 30 {
			t.Fatalf("client %d has %d iterations (imbalanced)", ci, n)
		}
	}
	if total != 100 {
		t.Fatalf("total %d, want 100", total)
	}
}

func TestDistributeSingleClient(t *testing.T) {
	tree := hierarchy.Build(&hierarchy.Node{Label: "root", CacheChunks: 8,
		Children: []*hierarchy.Node{{Label: "c0", CacheChunks: 8}}})
	chunks := figure6Chunks(8)
	out, err := DistributeCtx(context.Background(), chunks, tree, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || len(out[0]) != 8 {
		t.Fatalf("single client should receive all chunks, got %d", len(out[0]))
	}
}

func TestDistributeNonUniformTree(t *testing.T) {
	// 3 clients under one I/O node, 1 under the other: weighted balancing
	// should give the 3-leaf side about 3/4 of the iterations.
	io0 := &hierarchy.Node{Label: "IO0", CacheChunks: 16, Children: []*hierarchy.Node{
		{Label: "c0", CacheChunks: 8}, {Label: "c1", CacheChunks: 8}, {Label: "c2", CacheChunks: 8},
	}}
	io1 := &hierarchy.Node{Label: "IO1", CacheChunks: 16, Children: []*hierarchy.Node{
		{Label: "c3", CacheChunks: 8},
	}}
	tree := hierarchy.Build(&hierarchy.Node{Label: "SN", CacheChunks: 32,
		Children: []*hierarchy.Node{io0, io1}})
	chunks := figure6Chunks(8) // 64 iterations
	out, err := DistributeCtx(context.Background(), chunks, tree, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	var side0 int64
	for ci := 0; ci < 3; ci++ {
		for _, c := range out[ci] {
			side0 += c.Count()
		}
	}
	if side0 < 40 || side0 > 56 {
		t.Fatalf("3-leaf side holds %d of 64 iterations, want ≈48", side0)
	}
}

func TestMergeChunks(t *testing.T) {
	a := &tags.IterationChunk{Tag: bitvec.FromIndices(6, 0, 1).Sparse(), Iters: itset.Interval(0, 4)}
	b := &tags.IterationChunk{Tag: bitvec.FromIndices(6, 1, 2).Sparse(), Iters: itset.Interval(10, 14)}
	m := MergeChunks([]*tags.IterationChunk{a, b})
	if m.Count() != 8 {
		t.Fatalf("merged count %d", m.Count())
	}
	if !m.Tag.Dense().Equal(bitvec.FromIndices(6, 0, 1, 2)) {
		t.Fatalf("merged tag %s", m.Tag)
	}
	// Original chunks unchanged.
	if a.Tag.PopCount() != 2 || a.Count() != 4 {
		t.Fatal("MergeChunks mutated input")
	}
}

func TestMergeChunksPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("empty merge did not panic")
		}
	}()
	MergeChunks(nil)
}

func TestPreMergeDependent(t *testing.T) {
	chunks := figure6Chunks(8)
	// Tie γ1-γ2 and γ2-γ3 together: one super-chunk plus 5 singles.
	out := PreMergeDependent(chunks, [][2]int{{0, 1}, {1, 2}})
	if len(out) != 6 {
		t.Fatalf("got %d chunks, want 6", len(out))
	}
	var super *tags.IterationChunk
	for _, c := range out {
		if c.Count() == 24 {
			super = c
		}
	}
	if super == nil {
		t.Fatal("no merged super-chunk of 24 iterations")
	}
	if out2 := PreMergeDependent(chunks, nil); len(out2) != len(chunks) {
		t.Fatal("no-pair pre-merge changed the chunk list")
	}
}

func TestPreMergeDependentKeepsIterationsOnOneClient(t *testing.T) {
	chunks := figure6Chunks(8)
	pairs := [][2]int{{0, 4}} // γ1 and γ5 dependent
	merged := PreMergeDependent(chunks, pairs)
	out, err := DistributeCtx(context.Background(), merged, figure7Tree(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// γ1 ([0,8)) and γ5 ([32,40)) must be co-located (possibly via splits
	// of OTHER chunks, but the super-chunk itself is atomic unless split
	// by balancing; verify co-location of at least its first iterations).
	ownerOf := func(iter int64) int {
		for ci, cl := range out {
			for _, c := range cl {
				if c.Iters.Contains(iter) {
					return ci
				}
			}
		}
		return -1
	}
	if ownerOf(0) != ownerOf(32) {
		t.Fatalf("dependent iterations on clients %d and %d", ownerOf(0), ownerOf(32))
	}
}

func TestDependentPairsExactDistance(t *testing.T) {
	// A[i] = A[i-8] with chunk size 8: chunk k depends on chunk k-1.
	d := int64(8)
	nest := polyhedral.NewNest("dep", []int64{0}, []int64{4*d - 1})
	data := chunking.NewDataSpace(d, chunking.Array{Name: "A", Dims: []int64{4 * d}, ElemSize: 1})
	refs := []polyhedral.Ref{
		polyhedral.SimpleRef(0, 1, []int{0}, []int64{0}, polyhedral.Write),
		polyhedral.SimpleRef(0, 1, []int{0}, []int64{-d}, polyhedral.Read),
	}
	chunks := tags.Compute(nest, refs, data)
	deps := polyhedral.Analyze(nest, refs)
	if len(deps) == 0 {
		t.Fatal("no dependence found")
	}
	pairs := DependentPairs(chunks, nest, deps)
	if len(pairs) == 0 {
		t.Fatal("no dependent chunk pairs found")
	}
	// Adjacent chunks must be flagged.
	adjacent := false
	for _, p := range pairs {
		if p[1]-p[0] == 1 {
			adjacent = true
		}
	}
	if !adjacent {
		t.Fatalf("adjacent chunks not flagged: %v", pairs)
	}
}

func TestDependentPairsNoDeps(t *testing.T) {
	chunks := figure6Chunks(8)
	if pairs := DependentPairs(chunks, nil, nil); pairs != nil {
		t.Fatalf("no-dependence input produced %v", pairs)
	}
}

func TestCrossClientDependences(t *testing.T) {
	pairs := [][2]int{{0, 1}, {1, 2}, {2, 3}}
	owner := []int{0, 0, 1, -1}
	if got := CrossClientDependences(pairs, owner); got != 1 {
		t.Fatalf("CrossClientDependences = %d, want 1", got)
	}
}

// Property: for random chunk sets and layered trees, distribution exactly
// partitions the input iterations and respects the balance threshold
// loosely (no client exceeds twice the ideal share when enough chunks
// exist).
func TestPropertyDistributePartition(t *testing.T) {
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		r := 8 + rr.Intn(24)
		nChunks := 1 + rr.Intn(30)
		var chunks []*tags.IterationChunk
		var cursor int64
		var total int64
		for i := 0; i < nChunks; i++ {
			tag := bitvec.New(r)
			for b := 0; b < 1+rr.Intn(4); b++ {
				tag.Set(rr.Intn(r))
			}
			n := int64(1 + rr.Intn(50))
			chunks = append(chunks, &tags.IterationChunk{Tag: tag.Sparse(), Iters: itset.Interval(cursor, cursor+n)})
			cursor += n
			total += n
		}
		s := 1 + rr.Intn(2)
		io := s * (1 + rr.Intn(2))
		cn := io * (1 + rr.Intn(3))
		tree := hierarchy.NewLayered(
			hierarchy.LayerSpec{Count: s, CacheChunks: 4, Label: "SN"},
			hierarchy.LayerSpec{Count: io, CacheChunks: 4, Label: "IO"},
			hierarchy.LayerSpec{Count: cn, CacheChunks: 4, Label: "CN"},
		)
		out, err := DistributeCtx(context.Background(), chunks, tree, DefaultOptions())
		if err != nil {
			return false
		}
		var covered itset.Set
		var sum int64
		for _, cl := range out {
			for _, c := range cl {
				if !covered.Intersect(c.Iters).IsEmpty() {
					return false
				}
				covered = covered.Union(c.Iters)
				sum += c.Count()
			}
		}
		return sum == total && covered.Count() == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: per-client iteration counts respect the balance threshold with
// slack (each split level adds at most its own slack, and integer division
// adds ±1 per level).
func TestPropertyDistributeBalance(t *testing.T) {
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		r := 16
		var chunks []*tags.IterationChunk
		var cursor, total int64
		for i := 0; i < 20+rr.Intn(20); i++ {
			tag := bitvec.New(r)
			tag.Set(rr.Intn(r))
			tag.Set(rr.Intn(r))
			n := int64(1 + rr.Intn(20))
			chunks = append(chunks, &tags.IterationChunk{Tag: tag.Sparse(), Iters: itset.Interval(cursor, cursor+n)})
			cursor += n
			total += n
		}
		tree := hierarchy.NewLayered(
			hierarchy.LayerSpec{Count: 2, CacheChunks: 4, Label: "SN"},
			hierarchy.LayerSpec{Count: 4, CacheChunks: 4, Label: "IO"},
			hierarchy.LayerSpec{Count: 8, CacheChunks: 4, Label: "CN"},
		)
		out, err := DistributeCtx(context.Background(), chunks, tree, DefaultOptions())
		if err != nil {
			return false
		}
		ideal := float64(total) / 8
		for _, cl := range out {
			var n int64
			for _, c := range cl {
				n += c.Count()
			}
			// Three levels × 10% slack (+ integer rounding) — use a
			// generous envelope: 45% deviation or 3 iterations.
			dev := float64(n) - ideal
			if dev < 0 {
				dev = -dev
			}
			if dev > 0.45*ideal+3 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: distribution is deterministic.
func TestPropertyDistributeDeterministic(t *testing.T) {
	chunks1 := figure6Chunks(8)
	chunks2 := figure6Chunks(8)
	out1, err1 := DistributeCtx(context.Background(), chunks1, figure7Tree(), DefaultOptions())
	out2, err2 := DistributeCtx(context.Background(), chunks2, figure7Tree(), DefaultOptions())
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	for ci := range out1 {
		if len(out1[ci]) != len(out2[ci]) {
			t.Fatalf("client %d chunk counts differ", ci)
		}
		for i := range out1[ci] {
			if !sameTag(out1[ci][i].Tag, out2[ci][i].Tag) || !out1[ci][i].Iters.Equal(out2[ci][i].Iters) {
				t.Fatalf("client %d chunk %d differs", ci, i)
			}
		}
	}
}

// assignmentsEqual reports whether two per-client assignments carry the same
// chunks (tag + iteration set) in the same order.
func assignmentsEqual(a, b [][]*tags.IterationChunk) bool {
	if len(a) != len(b) {
		return false
	}
	for c := range a {
		if len(a[c]) != len(b[c]) {
			return false
		}
		for i := range a[c] {
			if !sameTag(a[c][i].Tag, b[c][i].Tag) || !a[c][i].Iters.Equal(b[c][i].Iters) {
				return false
			}
		}
	}
	return true
}

// fanOutWorkload is an input whose first split fans out: more chunks than
// fanOutMembers under a root with four storage subtrees, so at Workers ≥ 2
// the subtrees run on several workers (at 2, fewer than the subtrees).
func fanOutWorkload(seed int64) ([]*tags.IterationChunk, *hierarchy.Tree) {
	chunks, _ := randomWorkload(rand.New(rand.NewSource(seed)), 256, fanOutMembers+200, 0.02)
	return chunks, hierarchy.NewLayered(
		hierarchy.LayerSpec{Count: 4, CacheChunks: 8, Label: "SN"},
		hierarchy.LayerSpec{Count: 8, CacheChunks: 8, Label: "IO"},
		hierarchy.LayerSpec{Count: 16, CacheChunks: 8, Label: "CN"},
	)
}

func TestDistributeDeterministicAcrossWorkers(t *testing.T) {
	big, bigTree := fanOutWorkload(11)
	for _, tc := range []struct {
		name   string
		chunks []*tags.IterationChunk
		tree   *hierarchy.Tree
	}{
		{"figure6", figure6Chunks(8), figure7Tree()},
		{"fan-out", big, bigTree},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var want [][]*tags.IterationChunk
			for _, workers := range []int{1, 2, 4, 7} {
				opts := DefaultOptions()
				opts.Workers = workers
				got, err := DistributeCtx(context.Background(), tc.chunks, tc.tree, opts)
				if err != nil {
					t.Fatal(err)
				}
				if want == nil {
					want = got
				} else if !assignmentsEqual(got, want) {
					t.Fatalf("workers=%d: assignment differs from sequential", workers)
				}
			}
		})
	}
}

// TestDistributeCtxCanceled: a canceled context ends a distribution with
// context.Canceled, and a canceled root split stops at the similarity
// pass's first check, having carved no dense r-bit tag for its members.
func TestDistributeCtxCanceled(t *testing.T) {
	chunks := figure6Chunks(8)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		opts := DefaultOptions()
		opts.Workers = workers
		if _, err := DistributeCtx(ctx, chunks, figure7Tree(), opts); err != context.Canceled {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
	}
	n, r := 8*ctxCheckInterval, 1<<16
	big := make([]*tags.IterationChunk, n)
	for i := range big {
		big[i] = &tags.IterationChunk{Tag: bitvec.NewSparse(r, []int32{int32(i)}), Iters: itset.Interval(int64(i), int64(i+1))}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := DistributeCtx(ctx, big, figure7Tree(), DefaultOptions())
	runtime.ReadMemStats(&after)
	if err != context.Canceled {
		t.Fatalf("large input: err = %v, want context.Canceled", err)
	}
	if grew, tagBytes := after.TotalAlloc-before.TotalAlloc, uint64(n*r/8); grew > tagBytes/4 {
		t.Fatalf("a canceled split allocated %d bytes; Stage 0's tags for every member are %d", grew, tagBytes)
	}
}

// TestSplitCarvesNoSingletonTags distributes TestDistributeCtxCanceled's
// 8,192 one-bit chunks over r = 65,536 with a live context: it must
// allocate under a quarter of the n·r bits a dense tag per Stage 0
// singleton would take, since a one-chunk cluster keeps its member's tag
// until it absorbs, and still partition the iterations.
func TestSplitCarvesNoSingletonTags(t *testing.T) {
	n, r := 8*ctxCheckInterval, 1<<16
	big := make([]*tags.IterationChunk, n)
	for i := range big {
		big[i] = &tags.IterationChunk{Tag: bitvec.NewSparse(r, []int32{int32(i)}), Iters: itset.Interval(int64(i), int64(i+1))}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	out, err := DistributeCtx(context.Background(), big, figure7Tree(), DefaultOptions())
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, cl := range out {
		for _, c := range cl {
			total += c.Count()
		}
	}
	if total != int64(n) {
		t.Fatalf("the clients hold %d iterations, want %d", total, n)
	}
	if grew, tagBytes := after.TotalAlloc-before.TotalAlloc, uint64(n*r/8); grew > tagBytes/4 {
		t.Fatalf("a live split allocated %d bytes; Stage 0's tags for every member are %d", grew, tagBytes)
	}
}

// TestBumpTakeAndReset: a take returns a zeroed window of its own, capped
// at its length, and a reset re-zeroes everything handed out, in every
// block, so the next cycle re-carves the same storage zeroed.
func TestBumpTakeAndReset(t *testing.T) {
	var a bump[uint64]
	w1, w2 := a.take(2), a.take(2)
	if len(w1) != 2 || cap(w1) != 2 || w1[0]|w1[1]|w2[0]|w2[1] != 0 {
		t.Fatalf("take(2) = %v (cap %d), %v; want zeroed self-capped windows", w1, cap(w1), w2)
	}
	w1[1] = 7
	if w2[0] != 0 {
		t.Fatal("two takes share storage")
	}
	rest := a.take(bumpBlock - 4) // fills the first block
	rest[len(rest)-1] = 9
	next := a.take(3) // opens a second block
	next[2] = 5
	a.reset()
	v1 := a.take(2)
	if &v1[0] != &w1[0] {
		t.Fatal("reset did not rewind to the first window")
	}
	a.take(2)
	if w := a.take(bumpBlock - 4); w[len(w)-1] != 0 || v1[1] != 0 {
		t.Fatal("reset left the first block dirty")
	}
	if w := a.take(3); w[2] != 0 {
		t.Fatal("reset left the second block dirty")
	}
	if len(a.blocks) != 2 {
		t.Fatalf("the reset cycle grew the bump to %d blocks, want 2", len(a.blocks))
	}
}

// TestBumpGrowthKeepsWindows: growing into new blocks never moves or
// overwrites a window already handed out.
func TestBumpGrowthKeepsWindows(t *testing.T) {
	var a bump[uint64]
	first := a.take(4)
	first[3] = 7
	for i := 0; i < 3*bumpBlock; i++ {
		a.take(4)[0] = 1
	}
	if first[0]|first[1]|first[2] != 0 || first[3] != 7 {
		t.Fatalf("growth disturbed an earlier window: %v", first)
	}
}

// TestBumpOversizedTake: a take larger than a block gets a block of its
// own, and the next take lands clear of it.
func TestBumpOversizedTake(t *testing.T) {
	var a bump[uint64]
	n := bumpBlock + 1
	v := a.take(n)
	if len(v) != n {
		t.Fatalf("oversized take has %d elements, want %d", len(v), n)
	}
	v[n-1] = 1
	w := a.take(4)
	w[0] = 1
	var sum uint64
	for _, x := range v {
		sum += x
	}
	if v[n-1] != 1 || sum != 1 {
		t.Fatal("a take after an oversized one overlapped it")
	}
	if len(a.take(0)) != 0 {
		t.Fatal("zero-length take")
	}
}

// TestDotQueueMatchesSorted holds the merge's dot buckets to a sorted
// reference: random pushes, some of them at dots 97 apart so the top
// lookup crosses empty occupancy words, interleaved with pops, must pop
// in the merge order (dot desc, a, b), and before must place the top entry
// against a seed as that order does. A queue reset while it holds entries
// must then behave like a fresh one on the same storage.
func TestDotQueueMatchesSorted(t *testing.T) {
	order := func(x, y mergePair) int {
		if x.dot != y.dot {
			return cmp.Compare(y.dot, x.dot)
		}
		if x.a != y.a {
			return cmp.Compare(x.a, y.a)
		}
		return cmp.Compare(x.b, y.b)
	}
	pair := func(rr *rand.Rand) mergePair {
		dot := 1 + rr.Intn(12)
		if rr.Intn(2) == 0 {
			dot = 1 + rr.Intn(40)*97
		}
		a := int32(rr.Intn(300))
		return mergePair{dot: int64(dot), a: a, b: a + 1 + int32(rr.Intn(300))}
	}
	rr := rand.New(rand.NewSource(1))
	var q dotQueue
	for round := range 6 {
		var ref []mergePair // what q holds, in the merge order
		for range 4000 {
			if len(ref) == 0 || rr.Intn(5) < 3 {
				p := pair(rr)
				q.push(int(p.dot), p.a, p.b)
				i, _ := slices.BinarySearchFunc(ref, p, order)
				ref = slices.Insert(ref, i, p)
				continue
			}
			want := ref[0]
			dot := q.top()
			if seed := pair(rr); order(seed, want) != 0 && q.before(dot, seed) != (order(want, seed) < 0) {
				t.Fatalf("round %d: before(%d, %+v) = %v with %+v first", round, dot, seed, q.before(dot, seed), want)
			}
			a, b := q.pop(dot)
			if int64(dot) != want.dot || a != want.a || b != want.b {
				t.Fatalf("round %d: popped (%d, %d, %d), want %+v", round, dot, a, b, want)
			}
			ref = ref[1:]
		}
		if round%2 == 1 { // drain every other round before the reset
			for ; len(ref) > 0; ref = ref[1:] {
				dot := q.top()
				if a, b := q.pop(dot); int64(dot) != ref[0].dot || a != ref[0].a || b != ref[0].b {
					t.Fatalf("round %d drain: popped (%d, %d, %d), want %+v", round, dot, a, b, ref[0])
				}
			}
		}
		q.reset()
		if dot := q.top(); dot != 0 {
			t.Fatalf("round %d: a reset queue's top is %d", round, dot)
		}
	}
}

// goroutineID returns the running goroutine's ID, read off the header
// line of its stack ("goroutine 7 [running]:").
func goroutineID() string {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	id, _, _ := strings.Cut(strings.TrimPrefix(string(buf), "goroutine "), " ")
	return id
}

// fanOutClock is a test PhaseClock for a fan-out on two workers: the
// caller's, which runs on the test's goroutine, and a pooled one. Phases
// reported after the first split's balance phase are subtree phases. The
// caller's worker waits in its subtree phases until the pooled worker
// reaches one, so the pooled worker surely takes a child; the pooled
// worker's first subtree phase runs onPooled.
type fanOutClock struct {
	caller   string
	onPooled func()
	reached  chan struct{} // closed when the pooled worker reaches a subtree phase
	once     sync.Once

	mu        sync.Mutex
	rootSplit bool
}

func newFanOutClock(onPooled func()) *fanOutClock {
	return &fanOutClock{caller: goroutineID(), onPooled: onPooled, reached: make(chan struct{})}
}

func (c *fanOutClock) RecordPhase(name string, _ time.Time, _ time.Duration) {
	c.mu.Lock()
	subtree := c.rootSplit
	if name == "balance" {
		c.rootSplit = true
	}
	c.mu.Unlock()
	switch {
	case !subtree:
	case goroutineID() != c.caller:
		c.once.Do(func() {
			close(c.reached)
			c.onPooled()
		})
	default:
		select {
		case <-c.reached:
		case <-time.After(time.Minute):
			panic("the pooled worker never reached a subtree phase")
		}
	}
}

// TestDistributeFanOutCanceled cancels the run from the pooled worker's
// first subtree phase and holds that worker inside the phase report for a
// while: every worker must stop, DistributeCtx must return
// context.Canceled, and it must not return before the held worker's phase
// report is done, so the clock sees no phase after the return.
func TestDistributeFanOutCanceled(t *testing.T) {
	chunks, tree := fanOutWorkload(12)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	returned := make(chan struct{})
	left := make(chan struct{})
	var returnedFirst bool
	clock := newFanOutClock(func() {
		defer close(left)
		cancel()
		select {
		case <-returned:
			returnedFirst = true
		case <-time.After(250 * time.Millisecond):
		}
	})
	opts := DefaultOptions()
	opts.Workers = 2
	opts.Clock = clock
	_, err := DistributeCtx(ctx, chunks, tree, opts)
	close(returned)
	<-left
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if returnedFirst {
		t.Fatal("DistributeCtx returned while a worker was still reporting a phase")
	}
}

// TestDistributeFanOutPanic panics on the pooled worker's first subtree
// phase, while the caller's worker still has work left: the panic must
// reach the caller's recover with its original value, instead of killing
// the process from the pooled worker's goroutine.
func TestDistributeFanOutPanic(t *testing.T) {
	type boom struct{ msg string }
	want := &boom{"subtree phase"}
	chunks, tree := fanOutWorkload(13)
	opts := DefaultOptions()
	opts.Workers = 2
	opts.Clock = newFanOutClock(func() { panic(want) })
	var got any
	func() {
		defer func() { got = recover() }()
		_, err := DistributeCtx(context.Background(), chunks, tree, opts)
		t.Errorf("Distribute returned (err %v) instead of panicking", err)
	}()
	if jp, ok := got.(*join.Panic); !ok || jp.Value != want {
		t.Fatalf("recovered %v, want a *join.Panic of the subtree's panic value %v", got, want)
	} else if !strings.Contains(string(jp.Stack), "TestDistributeFanOutPanic.func1") {
		t.Fatalf("the panic's stack does not name the panicking clock:\n%s", jp.Stack)
	}
}

// phaseRecorder counts PhaseClock callbacks.
type phaseRecorder struct {
	mu     sync.Mutex
	starts map[string]int
}

func (p *phaseRecorder) RecordPhase(name string, _ time.Time, _ time.Duration) {
	p.mu.Lock()
	if p.starts == nil {
		p.starts = make(map[string]int)
	}
	p.starts[name]++
	p.mu.Unlock()
}

func TestDistributePhaseClock(t *testing.T) {
	opts := DefaultOptions()
	rec := &phaseRecorder{}
	opts.Clock = rec
	if _, err := DistributeCtx(context.Background(), figure6Chunks(8), figure7Tree(), opts); err != nil {
		t.Fatal(err)
	}
	for _, phase := range []string{"similarity", "cluster", "balance"} {
		if rec.starts[phase] == 0 {
			t.Fatalf("phase %q never started (starts=%v)", phase, rec.starts)
		}
	}
}
