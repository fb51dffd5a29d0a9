package core

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/bitvec"
	"repro/internal/hierarchy"
	"repro/internal/itset"
	"repro/internal/tags"
)

func TestScheduleValidation(t *testing.T) {
	tree := figure7Tree()
	if _, err := ScheduleCtx(context.Background(), nil, nil, DefaultScheduleOptions()); err == nil {
		t.Error("nil tree accepted")
	}
	if _, err := ScheduleCtx(context.Background(), make([][]*tags.IterationChunk, 2), tree, DefaultScheduleOptions()); err == nil {
		t.Error("wrong client count accepted")
	}
	if _, err := ScheduleCtx(context.Background(), make([][]*tags.IterationChunk, 4), tree, ScheduleOptions{Alpha: -1}); err == nil {
		t.Error("negative alpha accepted")
	}
}

func TestSchedulePreservesChunkSets(t *testing.T) {
	chunks := figure6Chunks(8)
	tree := figure7Tree()
	assign, err := DistributeCtx(context.Background(), chunks, tree, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	sched, err := ScheduleCtx(context.Background(), assign, tree, DefaultScheduleOptions())
	if err != nil {
		t.Fatal(err)
	}
	for ci := range assign {
		if len(sched[ci]) != len(assign[ci]) {
			t.Fatalf("client %d: %d chunks scheduled, %d assigned", ci, len(sched[ci]), len(assign[ci]))
		}
		// Same chunk multiset (compare by identity).
		seen := map[*tags.IterationChunk]int{}
		for _, c := range assign[ci] {
			seen[c]++
		}
		for _, c := range sched[ci] {
			seen[c]--
		}
		for _, v := range seen {
			if v != 0 {
				t.Fatalf("client %d: schedule is not a permutation of its assignment", ci)
			}
		}
	}
}

func TestScheduleDoesNotMutateInput(t *testing.T) {
	chunks := figure6Chunks(8)
	tree := figure7Tree()
	assign, _ := DistributeCtx(context.Background(), chunks, tree, DefaultOptions())
	before := make([][]*tags.IterationChunk, len(assign))
	for i := range assign {
		before[i] = append([]*tags.IterationChunk(nil), assign[i]...)
	}
	if _, err := ScheduleCtx(context.Background(), assign, tree, DefaultScheduleOptions()); err != nil {
		t.Fatal(err)
	}
	for i := range assign {
		for j := range assign[i] {
			if assign[i][j] != before[i][j] {
				t.Fatal("Schedule mutated its input")
			}
		}
	}
}

func TestScheduleFirstClientStartsWithFewestDataChunks(t *testing.T) {
	// Figure 15: the first client under an I/O cache starts with the
	// iteration chunk accessing the fewest data chunks.
	tree := figure7Tree()
	mk := func(bits []int, lo, hi int64) *tags.IterationChunk {
		return &tags.IterationChunk{Tag: bitvec.FromIndices(12, bits...).Sparse(), Iters: itset.Interval(lo, hi)}
	}
	assign := [][]*tags.IterationChunk{
		{mk([]int{0, 1, 2, 3}, 0, 10), mk([]int{5}, 10, 20), mk([]int{0, 1}, 20, 30)},
		{mk([]int{5, 6}, 30, 40)},
		{mk([]int{7}, 40, 50)},
		{mk([]int{8}, 50, 60)},
	}
	sched, err := ScheduleCtx(context.Background(), assign, tree, DefaultScheduleOptions())
	if err != nil {
		t.Fatal(err)
	}
	if sched[0][0].Tag.PopCount() != 1 {
		t.Fatalf("client 0 starts with popcount %d, want 1", sched[0][0].Tag.PopCount())
	}
}

func TestScheduleHorizontalAffinity(t *testing.T) {
	// Client 1's first chunk should maximize overlap with client 0's first
	// chunk (α dimension).
	tree := figure7Tree()
	mk := func(bits []int, lo int64) *tags.IterationChunk {
		return &tags.IterationChunk{Tag: bitvec.FromIndices(12, bits...).Sparse(), Iters: itset.Interval(lo, lo+10)}
	}
	c0first := mk([]int{3}, 0)
	assign := [][]*tags.IterationChunk{
		{c0first},
		{mk([]int{9, 10}, 10), mk([]int{3, 4}, 20)}, // second overlaps c0first
		{mk([]int{1}, 30)},
		{mk([]int{2}, 40)},
	}
	sched, err := ScheduleCtx(context.Background(), assign, tree, ScheduleOptions{Alpha: 1, Beta: 0})
	if err != nil {
		t.Fatal(err)
	}
	if !sched[1][0].Tag.Dense().Get(3) {
		t.Fatalf("client 1 first chunk %s has no overlap with client 0's %s",
			sched[1][0].Tag, c0first.Tag)
	}
}

func TestScheduleVerticalAffinity(t *testing.T) {
	// With β only, a client's chunks chain by local reuse: after {0,1}
	// comes {1,2}, not {7,8}.
	tree := figure7Tree()
	mk := func(bits []int, lo int64) *tags.IterationChunk {
		return &tags.IterationChunk{Tag: bitvec.FromIndices(12, bits...).Sparse(), Iters: itset.Interval(lo, lo+10)}
	}
	assign := [][]*tags.IterationChunk{
		{mk([]int{0}, 0), mk([]int{7, 8}, 10), mk([]int{0, 1}, 20)},
		nil, nil, nil,
	}
	sched, err := ScheduleCtx(context.Background(), assign, tree, ScheduleOptions{Alpha: 0, Beta: 1})
	if err != nil {
		t.Fatal(err)
	}
	order := sched[0]
	if order[0].Tag.PopCount() != 1 || !order[0].Tag.Dense().Get(0) {
		t.Fatalf("first chunk wrong: %s", order[0].Tag)
	}
	if !order[1].Tag.Dense().Get(0) {
		t.Fatalf("second chunk %s does not reuse chunk 0's data", order[1].Tag)
	}
}

func TestScheduleFigure17Structure(t *testing.T) {
	// The paper's example: after distribution, each client schedules its
	// pair in tag order with the lower-numbered chunk first (γ2 before γ4,
	// etc., Figure 17) — in our tie-breaking, the chunk with fewer or
	// equal data chunks comes first and chains by reuse.
	chunks := figure6Chunks(8)
	tree := figure7Tree()
	assign, _ := DistributeCtx(context.Background(), chunks, tree, DefaultOptions())
	sched, err := ScheduleCtx(context.Background(), assign, tree, DefaultScheduleOptions())
	if err != nil {
		t.Fatal(err)
	}
	for ci, cl := range sched {
		if len(cl) != 2 {
			t.Fatalf("client %d has %d chunks", ci, len(cl))
		}
		// Consecutive chunks on a client must share data (dot > 0), the
		// vertical reuse the schedule exists to create.
		if cl[0].Tag.AndPopCount(cl[1].Tag.Dense()) == 0 {
			t.Fatalf("client %d consecutive chunks share nothing", ci)
		}
	}
}

func TestScheduleBalancesCircularly(t *testing.T) {
	// Unbalanced chunk sizes: the round-robin bound keeps per-client
	// scheduled counts close at each round boundary; at completion, all
	// chunks are scheduled.
	tree := figure7Tree()
	mk := func(n int64, lo int64, bit int) *tags.IterationChunk {
		return &tags.IterationChunk{Tag: bitvec.FromIndices(12, bit).Sparse(), Iters: itset.Interval(lo, lo+n)}
	}
	assign := [][]*tags.IterationChunk{
		{mk(5, 0, 0), mk(5, 5, 1), mk(5, 10, 2), mk(5, 15, 3)},
		{mk(20, 20, 4)},
		{mk(10, 40, 5), mk(10, 50, 6)},
		{mk(1, 60, 7)},
	}
	sched, err := ScheduleCtx(context.Background(), assign, tree, DefaultScheduleOptions())
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, cl := range sched {
		for _, c := range cl {
			total += c.Count()
		}
	}
	if total != 61 {
		t.Fatalf("scheduled %d iterations, want 61", total)
	}
}

func TestScheduleEmptyClients(t *testing.T) {
	tree := figure7Tree()
	assign := make([][]*tags.IterationChunk, 4)
	sched, err := ScheduleCtx(context.Background(), assign, tree, DefaultScheduleOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, cl := range sched {
		if len(cl) != 0 {
			t.Fatal("empty input scheduled chunks")
		}
	}
}

func TestIOGroups(t *testing.T) {
	tree := figure7Tree()
	groups := ioGroups(tree)
	if len(groups) != 2 {
		t.Fatalf("got %d groups, want 2", len(groups))
	}
	if len(groups[0]) != 2 || groups[0][0] != 0 || groups[0][1] != 1 {
		t.Fatalf("group 0 = %v", groups[0])
	}
	if len(groups[1]) != 2 || groups[1][0] != 2 || groups[1][1] != 3 {
		t.Fatalf("group 1 = %v", groups[1])
	}
}

// Property: Schedule always emits a permutation of each client's assigned
// chunks, for random assignments and α/β weights.
func TestPropertySchedulePermutation(t *testing.T) {
	tree := figure7Tree()
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		assign := make([][]*tags.IterationChunk, 4)
		var cursor int64
		for ci := range assign {
			for j := 0; j < rr.Intn(6); j++ {
				tag := bitvec.New(16)
				for b := 0; b < 1+rr.Intn(3); b++ {
					tag.Set(rr.Intn(16))
				}
				n := int64(1 + rr.Intn(10))
				assign[ci] = append(assign[ci], &tags.IterationChunk{Tag: tag.Sparse(), Iters: itset.Interval(cursor, cursor+n)})
				cursor += n
			}
		}
		opts := ScheduleOptions{Alpha: rr.Float64(), Beta: rr.Float64()}
		sched, err := ScheduleCtx(context.Background(), assign, tree, opts)
		if err != nil {
			return false
		}
		for ci := range assign {
			if len(sched[ci]) != len(assign[ci]) {
				return false
			}
			seen := map[*tags.IterationChunk]int{}
			for _, c := range assign[ci] {
				seen[c]++
			}
			for _, c := range sched[ci] {
				seen[c]--
			}
			for _, v := range seen {
				if v != 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestScheduleEdgeCases table-drives the degenerate inputs the round-robin
// balancing loop must survive: a client with no chunks, zero reuse weights,
// a single chunk, and a tree whose I/O groups have unequal sizes.
func TestScheduleEdgeCases(t *testing.T) {
	mk := func(r int, bits []int, lo, hi int64) *tags.IterationChunk {
		return &tags.IterationChunk{Tag: bitvec.FromIndices(r, bits...).Sparse(), Iters: itset.Interval(lo, hi)}
	}
	nonUniform := hierarchy.Build(&hierarchy.Node{Label: "SN", CacheChunks: 16,
		Children: []*hierarchy.Node{
			{Label: "IO0", CacheChunks: 8, Children: []*hierarchy.Node{
				{Label: "c0", CacheChunks: 4},
				{Label: "c1", CacheChunks: 4},
				{Label: "c2", CacheChunks: 4},
			}},
			{Label: "IO1", CacheChunks: 8, Children: []*hierarchy.Node{
				{Label: "c3", CacheChunks: 4},
			}},
		}})

	cases := []struct {
		name   string
		tree   *hierarchy.Tree
		assign [][]*tags.IterationChunk
		opts   ScheduleOptions
	}{
		{
			name: "empty client slot",
			tree: figure7Tree(),
			assign: [][]*tags.IterationChunk{
				{mk(4, []int{0, 1}, 0, 10), mk(4, []int{1, 2}, 10, 20)},
				nil, // this client received no chunks
				{mk(4, []int{2, 3}, 20, 30)},
				{mk(4, []int{0, 3}, 30, 40)},
			},
			opts: DefaultScheduleOptions(),
		},
		{
			name: "alpha and beta zero",
			tree: figure7Tree(),
			assign: [][]*tags.IterationChunk{
				{mk(4, []int{0}, 0, 5), mk(4, []int{1}, 5, 10)},
				{mk(4, []int{2}, 10, 15)},
				{mk(4, []int{3}, 15, 20)},
				{mk(4, []int{0, 2}, 20, 25)},
			},
			opts: ScheduleOptions{Alpha: 0, Beta: 0},
		},
		{
			name: "single iteration chunk",
			tree: figure7Tree(),
			assign: [][]*tags.IterationChunk{
				{mk(4, []int{0, 1, 2}, 0, 100)},
				nil, nil, nil,
			},
			opts: DefaultScheduleOptions(),
		},
		{
			name: "non-uniform tree",
			tree: nonUniform,
			assign: [][]*tags.IterationChunk{
				{mk(4, []int{0}, 0, 10), mk(4, []int{1}, 10, 20)},
				{mk(4, []int{2}, 20, 30)},
				{mk(4, []int{3}, 30, 40)},
				{mk(4, []int{0, 3}, 40, 80)}, // the lone client in its group
			},
			opts: DefaultScheduleOptions(),
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			out, err := ScheduleCtx(context.Background(), tc.assign, tc.tree, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			if len(out) != len(tc.assign) {
				t.Fatalf("got %d client slots, want %d", len(out), len(tc.assign))
			}
			for c := range tc.assign {
				if len(out[c]) != len(tc.assign[c]) {
					t.Fatalf("client %d: %d chunks scheduled, want %d", c, len(out[c]), len(tc.assign[c]))
				}
				// The schedule is a permutation: every input chunk appears
				// exactly once on its own client.
				seen := make(map[*tags.IterationChunk]bool, len(out[c]))
				for _, ch := range out[c] {
					seen[ch] = true
				}
				for _, ch := range tc.assign[c] {
					if !seen[ch] {
						t.Fatalf("client %d: chunk %v missing from schedule", c, ch)
					}
				}
			}
		})
	}
}

func TestScheduleCtxCanceled(t *testing.T) {
	// Enough chunks that the round loop passes a cancellation check:
	// one chunk per round per client, so > ctxCheckInterval rounds.
	tree := figure7Tree()
	assign := make([][]*tags.IterationChunk, 4)
	for c := range assign {
		for i := 0; i < ctxCheckInterval+8; i++ {
			lo := int64(c*100000 + i)
			assign[c] = append(assign[c], &tags.IterationChunk{
				Tag:   bitvec.FromIndices(4, c).Sparse(),
				Iters: itset.Interval(lo, lo+1),
			})
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 2} {
		opts := DefaultScheduleOptions()
		opts.Workers = workers
		if _, err := ScheduleCtx(ctx, assign, tree, opts); err != context.Canceled {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
	}
}
