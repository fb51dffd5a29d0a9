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

// randomAssign builds a random chunk set and distributes it over a random
// layered tree, returning the clustering, the tree and the total iteration
// count.
func randomAssign(rr *rand.Rand) ([][]*tags.IterationChunk, *hierarchy.Tree, int64) {
	r := 8 + rr.Intn(24)
	var chunks []*tags.IterationChunk
	var cursor, total int64
	for i := 0; i < 4+rr.Intn(28); i++ {
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
		hierarchy.LayerSpec{Count: s, CacheChunks: 8, Label: "SN"},
		hierarchy.LayerSpec{Count: io, CacheChunks: 8, Label: "IO"},
		hierarchy.LayerSpec{Count: cn, CacheChunks: 8, Label: "CN"},
	)
	out, err := DistributeCtx(context.Background(), chunks, tree, DefaultOptions())
	if err != nil {
		panic(err)
	}
	return out, tree, total
}

// Property: re-balancing a clustering against the very tree that produced
// it is a strict no-op — the byte-identity contract of zero-drift repair.
func TestPropertyRebalanceZeroDriftNoOp(t *testing.T) {
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		assign, tree, _ := randomAssign(rr)
		out, err := RebalanceClusters(context.Background(), assign, tree, DefaultOptions())
		if err != nil {
			return false
		}
		return assignmentsEqual(out, assign)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: re-balancing onto a drifted tree (same client count, drifted
// cache capacities; or a different client count entirely) still exactly
// partitions the input iterations.
func TestPropertyRebalancePartition(t *testing.T) {
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		assign, _, total := randomAssign(rr)
		// A fresh random tree: client count may shrink, grow or match.
		s := 1 + rr.Intn(2)
		io := s * (1 + rr.Intn(2))
		cn := io * (1 + rr.Intn(4))
		tree := hierarchy.NewLayered(
			hierarchy.LayerSpec{Count: s, CacheChunks: 4 + rr.Intn(12), Label: "SN"},
			hierarchy.LayerSpec{Count: io, CacheChunks: 4 + rr.Intn(12), Label: "IO"},
			hierarchy.LayerSpec{Count: cn, CacheChunks: 4 + rr.Intn(12), Label: "CN"},
		)
		out, err := RebalanceClusters(context.Background(), assign, tree, DefaultOptions())
		if err != nil {
			return false
		}
		if len(out) != tree.NumClients() {
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
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestRebalanceClientCountChange(t *testing.T) {
	chunks := figure6Chunks(8)
	tree4 := figure7Tree()
	assign, err := DistributeCtx(context.Background(), chunks, tree4, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}

	// Grow to 8 clients: every client must receive work (64 iterations
	// over 8 clients leave no excuse for an empty one under splitting).
	tree8 := hierarchy.NewLayered(
		hierarchy.LayerSpec{Count: 1, CacheChunks: 64, Label: "SN"},
		hierarchy.LayerSpec{Count: 2, CacheChunks: 64, Label: "IO"},
		hierarchy.LayerSpec{Count: 8, CacheChunks: 64, Label: "CN"},
	)
	out, err := RebalanceClusters(context.Background(), assign, tree8, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 8 {
		t.Fatalf("got %d clients, want 8", len(out))
	}
	var total int64
	for ci, cl := range out {
		var n int64
		for _, c := range cl {
			n += c.Count()
		}
		if n == 0 {
			t.Errorf("client %d received nothing after growth", ci)
		}
		total += n
	}
	if total != 64 {
		t.Fatalf("grew to %d iterations, want 64", total)
	}

	// Shrink to 2 clients: surplus clusters merge.
	tree2 := hierarchy.NewLayered(
		hierarchy.LayerSpec{Count: 1, CacheChunks: 64, Label: "SN"},
		hierarchy.LayerSpec{Count: 2, CacheChunks: 64, Label: "CN"},
	)
	out, err = RebalanceClusters(context.Background(), assign, tree2, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("got %d clients, want 2", len(out))
	}
	total = 0
	for _, cl := range out {
		for _, c := range cl {
			total += c.Count()
		}
	}
	if total != 64 {
		t.Fatalf("shrank to %d iterations, want 64", total)
	}
}

func TestRebalanceDoesNotMutateInput(t *testing.T) {
	chunks := figure6Chunks(8)
	tree := figure7Tree()
	assign, err := DistributeCtx(context.Background(), chunks, tree, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	snapshot := make([][]*tags.IterationChunk, len(assign))
	for i, cl := range assign {
		snapshot[i] = append([]*tags.IterationChunk(nil), cl...)
	}
	tree8 := hierarchy.NewLayered(
		hierarchy.LayerSpec{Count: 1, CacheChunks: 64, Label: "SN"},
		hierarchy.LayerSpec{Count: 8, CacheChunks: 64, Label: "CN"},
	)
	if _, err := RebalanceClusters(context.Background(), assign, tree8, DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	for i := range assign {
		if len(assign[i]) != len(snapshot[i]) {
			t.Fatalf("client %d list length changed", i)
		}
		for j := range assign[i] {
			if assign[i][j] != snapshot[i][j] {
				t.Fatalf("client %d chunk %d pointer changed", i, j)
			}
		}
	}
}

func TestRebalanceValidation(t *testing.T) {
	if _, err := RebalanceClusters(context.Background(), nil, nil, DefaultOptions()); err == nil {
		t.Error("nil tree accepted")
	}
	if _, err := RebalanceClusters(context.Background(), nil, figure7Tree(), Options{BalanceThreshold: -1}); err == nil {
		t.Error("negative threshold accepted")
	}
	bad := [][]*tags.IterationChunk{
		{{Tag: bitvec.New(4).Sparse(), Iters: itset.Interval(0, 1)}},
		{{Tag: bitvec.New(5).Sparse(), Iters: itset.Interval(1, 2)}},
	}
	if _, err := RebalanceClusters(context.Background(), bad, figure7Tree(), DefaultOptions()); err == nil {
		t.Error("inconsistent tag widths accepted")
	}
}

func TestRescheduleStagesLexicographic(t *testing.T) {
	chunks := figure6Chunks(8)
	tree := figure7Tree()
	assign, err := DistributeCtx(context.Background(), chunks, tree, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	out, err := RescheduleStages(context.Background(), assign, tree, ScheduleOptions{}, false)
	if err != nil {
		t.Fatal(err)
	}
	for ci, cl := range out {
		for i := 1; i < len(cl); i++ {
			if chunkKey(cl[i-1]) > chunkKey(cl[i]) {
				t.Fatalf("client %d not in execution order at %d", ci, i)
			}
		}
		// Inputs untouched, outputs fresh slices.
		if len(cl) > 0 && &cl[0] == &assign[ci][0] {
			t.Fatalf("client %d shares backing array with input", ci)
		}
	}
	if _, err := RescheduleStages(context.Background(), assign[:2], tree, ScheduleOptions{}, false); err == nil {
		t.Error("client count mismatch accepted")
	}
}
