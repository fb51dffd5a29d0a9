package core

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bitvec"
	"repro/internal/hierarchy"
	"repro/internal/itset"
	"repro/internal/join"
	"repro/internal/polyhedral"
	"repro/internal/tags"
)

// randomWorkload builds a random chunk list and layered tree. density is
// the probability of each tag bit being set (0 produces all-zero tags).
func randomWorkload(rr *rand.Rand, r, n int, density float64) ([]*tags.IterationChunk, *hierarchy.Tree) {
	var chunks []*tags.IterationChunk
	var cursor int64
	for i := 0; i < n; i++ {
		tag := bitvec.New(r)
		for b := 0; b < r; b++ {
			if rr.Float64() < density {
				tag.Set(b)
			}
		}
		cnt := int64(1 + rr.Intn(40))
		chunks = append(chunks, &tags.IterationChunk{Tag: tag.Sparse(), Iters: itset.Interval(cursor, cursor+cnt)})
		cursor += cnt
	}
	s := 1 + rr.Intn(2)
	io := s * (1 + rr.Intn(2))
	cn := io * (1 + rr.Intn(3))
	tree := hierarchy.NewLayered(
		hierarchy.LayerSpec{Count: s, CacheChunks: 8, Label: "SN"},
		hierarchy.LayerSpec{Count: io, CacheChunks: 8, Label: "IO"},
		hierarchy.LayerSpec{Count: cn, CacheChunks: 8, Label: "CN"},
	)
	return chunks, tree
}

// cloneChunks gives each engine its own chunk objects (Distribute may split
// chunks, and clusters alias them).
func cloneChunks(chunks []*tags.IterationChunk) []*tags.IterationChunk {
	out := make([]*tags.IterationChunk, len(chunks))
	for i, c := range chunks {
		out[i] = &tags.IterationChunk{Tag: c.Tag, Iters: c.Iters, Nest: c.Nest}
	}
	return out
}

// pairStatsClock records the similarity pair counters alongside phases.
type pairStatsClock struct {
	mu        sync.Mutex
	generated int64
	dense     int64
}

func (p *pairStatsClock) RecordPhase(string, time.Time, time.Duration) {}

func (p *pairStatsClock) RecordSimilarityPairs(generated, dense int64) {
	p.mu.Lock()
	p.generated += generated
	p.dense += dense
	p.mu.Unlock()
}

// TestSparseSimilaritySmoke asserts the sparse path is the one actually
// selected: the distributor reports pair statistics (only the sparse engine
// does), generates at least one pair on an overlapping workload, and
// generates no more than the dense bound — strictly fewer here, since the
// workload's tags split into two non-overlapping families (even chunks
// share data chunk 0, odd chunks data chunk 1, no cross-family overlap).
// This is the short-mode CI gate.
func TestSparseSimilaritySmoke(t *testing.T) {
	const r = 8
	var chunks []*tags.IterationChunk
	for i := 0; i < 8; i++ {
		chunks = append(chunks, &tags.IterationChunk{
			Tag:   bitvec.FromIndices(r, i%2).Sparse(),
			Iters: itset.Interval(int64(i)*8, int64(i+1)*8),
		})
	}
	clock := &pairStatsClock{}
	opts := DefaultOptions()
	opts.Clock = clock
	if _, err := DistributeCtx(context.Background(), chunks, figure7Tree(), opts); err != nil {
		t.Fatal(err)
	}
	if clock.dense == 0 {
		t.Fatal("no pair stats recorded: sparse similarity engine not selected")
	}
	if clock.generated <= 0 {
		t.Fatalf("generated %d pairs, want > 0", clock.generated)
	}
	if clock.generated > clock.dense {
		t.Fatalf("pairs_generated %d exceeds pairs_dense %d", clock.generated, clock.dense)
	}
	if clock.generated >= clock.dense {
		t.Fatalf("pairs_generated %d not below the dense bound %d on a two-family workload",
			clock.generated, clock.dense)
	}
}

// TestSparsePairsMatchesBruteForce checks the generator itself: from tags
// given as their set bits, the pair list must be exactly the weight ≥ 1
// pairs in row-major order with correct weights, at several worker counts.
// Tag counts run from 1 to 80, widths from 1 to 300 and densities from all
// zeros to all ones.
func TestSparsePairsMatchesBruteForce(t *testing.T) {
	const seeds = 40
	for seed := int64(0); seed < seeds; seed++ {
		rr := rand.New(rand.NewSource(seed))
		r := 1 + rr.Intn(300)
		n := 1 + int(seed)*79/(seeds-1)
		density := rr.Float64()
		switch seed % 8 {
		case 0:
			density = 1
		case 1:
			density = 0
		}
		tagOf := make([]bitvec.Vector, n)
		rows := make([][]int32, n)
		for i := range tagOf {
			v := bitvec.New(r)
			for b := 0; b < r; b++ {
				if rr.Float64() < density {
					v.Set(b)
				}
			}
			tagOf[i], rows[i] = v, v.AppendSetBits(nil)
		}
		var want []mergePair
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if w := int64(tagOf[i].AndPopCount(tagOf[j])); w > 0 {
					want = append(want, mergePair{dot: w, a: int32(i), b: int32(j)})
				}
			}
		}
		for _, workers := range []int{1, 2, 5} {
			got, err := sparsePairs(t.Context(), rows, r, workers)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("seed %d n=%d r=%d workers %d: %d pairs, want %d", seed, n, r, workers, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("seed %d n=%d r=%d workers %d: pair %d = %+v, want %+v", seed, n, r, workers, i, got[i], want[i])
				}
			}
		}
	}
}

// heldPanicCtx is a context whose Err panics: the first call at once, the
// second only after holding on until the test has recovered or a while has
// passed. It records whether the test recovered while the second call was
// still held.
type heldPanicCtx struct {
	context.Context
	value     any
	calls     atomic.Int32
	recovered chan struct{} // closed by the test once it has recovered
	left      chan struct{} // closed when the held call panics
	early     bool          // the test recovered while the call was held
}

func (c *heldPanicCtx) Err() error {
	if c.calls.Add(1) == 2 {
		defer close(c.left)
		select {
		case <-c.recovered:
			c.early = true
		case <-time.After(250 * time.Millisecond):
		}
	}
	panic(c.value)
}

// TestSparsePairsShardPanic panics inside both row shards of a two-worker
// similarity pass, one shard only after a hold: the panic must reach the
// caller's recover with its original value, instead of killing the
// process from a shard goroutine, and only once every shard has returned.
func TestSparsePairsShardPanic(t *testing.T) {
	type boom struct{ msg string }
	ctx := &heldPanicCtx{
		Context:   context.Background(),
		value:     &boom{"similarity shard"},
		recovered: make(chan struct{}),
		left:      make(chan struct{}),
	}
	rows := [][]int32{{0, 1}, {1}, {0}, {1, 2}}
	var got any
	func() {
		defer func() { got = recover() }()
		_, err := sparsePairs(ctx, rows, 3, 2)
		t.Errorf("sparsePairs returned (err %v) instead of panicking", err)
	}()
	close(ctx.recovered)
	<-ctx.left
	if jp, ok := got.(*join.Panic); !ok || jp.Value != ctx.value {
		t.Fatalf("recovered %v, want a *join.Panic of the shard's panic value %v", got, ctx.value)
	} else if !strings.Contains(string(jp.Stack), "(*heldPanicCtx).Err") {
		t.Fatalf("the panic's stack does not name the panicking shard:\n%s", jp.Stack)
	}
	if ctx.early {
		t.Fatal("the panic was re-raised while a shard goroutine was still running")
	}
}

// TestDependentPairsConservativeMatchesBruteForce checks that the
// inverted-index conservative path produces exactly the old O(n²) scan's
// pairs, in the same order, and that several unknown-distance dependences
// share one scan (same output as a single one).
func TestDependentPairsConservativeMatchesBruteForce(t *testing.T) {
	rr := rand.New(rand.NewSource(7))
	chunks, _ := randomWorkload(rr, 24, 30, 0.15)
	var total int64
	for _, c := range chunks {
		total += c.Count()
	}
	nest := polyhedral.NewNest("dep", []int64{0}, []int64{total - 1})
	unknown := []polyhedral.Dependence{{Distance: []int64{1}, Known: []bool{false}}}

	var want [][2]int
	for i := range chunks {
		for j := i + 1; j < len(chunks); j++ {
			if chunks[i].Tag.AndPopCount(chunks[j].Tag.Dense()) > 0 {
				want = append(want, [2]int{i, j})
			}
		}
	}
	got := DependentPairs(chunks, nest, unknown)
	if len(got) != len(want) {
		t.Fatalf("%d pairs, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("pair %d = %v, want %v", i, got[i], want[i])
		}
	}
	// Three unknown deps must reuse the one scan and dedupe to the same set.
	got3 := DependentPairs(chunks, nest, append(append(unknown, unknown...), unknown...))
	if len(got3) != len(want) {
		t.Fatalf("3 unknown deps produced %d pairs, want %d", len(got3), len(want))
	}
}

// TestSplitUpTo pins splitUpTo's choices: an empty list is padded with
// empty clusters, and each split breaks the largest cluster, a size tie
// going to the earliest first iteration and then to the lowest position.
// The halves take the broken cluster's position and the end of the list.
func TestSplitUpTo(t *testing.T) {
	const r = 8
	// cluster builds a one-chunk cluster of iterations [lo, lo+n).
	cluster := func(lo, n int64) *Cluster {
		c := newCluster(r)
		c.add(&tags.IterationChunk{Tag: bitvec.FromIndices(r, int(lo)%r).Sparse(), Iters: itset.Interval(lo, lo+n)})
		return c
	}
	// desc renders each cluster as first iteration:size, "-" for none.
	desc := func(cs []*Cluster) string {
		var b strings.Builder
		for _, c := range cs {
			if first := c.firstIter(); first == 1<<62 {
				fmt.Fprintf(&b, " -:%d", c.Size)
			} else {
				fmt.Fprintf(&b, " %d:%d", first, c.Size)
			}
			if c.Tag.Len() != r {
				fmt.Fprintf(&b, "(tag width %d)", c.Tag.Len())
			}
		}
		return b.String()
	}
	for _, tc := range []struct {
		name string
		in   []*Cluster
		k    int
		want string
	}{
		{"empty list pads", nil, 3, " -:0 -:0 -:0"},
		{"enough clusters", []*Cluster{cluster(0, 4)}, 1, " 0:4"},
		{"largest first", []*Cluster{cluster(0, 3), cluster(3, 6)}, 3, " 0:3 3:3 6:3"},
		{"tie to first iteration", []*Cluster{cluster(10, 4), cluster(2, 4), cluster(20, 3)}, 4, " 10:4 2:2 20:3 4:2"},
		{"tie to position", []*Cluster{cluster(5, 4), cluster(5, 4)}, 3, " 5:2 5:4 7:2"},
		{"repeated splits", []*Cluster{cluster(0, 8)}, 4, " 0:2 4:2 2:2 6:2"},
	} {
		d := &distributor{ctx: context.Background(), r: r}
		got := desc(d.splitUpTo(tc.in, tc.k))
		d.release()
		if got != tc.want {
			t.Errorf("%s: got%s, want%s", tc.name, got, tc.want)
		}
	}
}

// TestClusterCountedTagRemoval checks the counted-tag bookkeeping directly:
// removing members keeps the OR tag exact under shared bits, and re-adding
// restores it.
func TestClusterCountedTagRemoval(t *testing.T) {
	r := 16
	c := newCluster(r)
	a := &tags.IterationChunk{Tag: bitvec.FromIndices(r, 0, 1, 2).Sparse(), Iters: itset.Interval(0, 4)}
	b := &tags.IterationChunk{Tag: bitvec.FromIndices(r, 2, 3).Sparse(), Iters: itset.Interval(4, 8)}
	d := &tags.IterationChunk{Tag: bitvec.FromIndices(r, 3, 9).Sparse(), Iters: itset.Interval(8, 12)}
	c.add(a)
	c.add(b)
	c.add(d)
	scr := new(distScratch)
	got := c.removeAt(1, scr) // drop b
	if got != b {
		t.Fatal("removeAt returned the wrong member")
	}
	// Bit 2 is still held by a, bit 3 by d: tag must keep both.
	if want := bitvec.FromIndices(r, 0, 1, 2, 3, 9); !c.Tag.Equal(want) {
		t.Fatalf("tag after removal = %s, want %s", c.Tag.Sparse(), want.Sparse())
	}
	c.removeAt(1, scr) // drop d
	if want := bitvec.FromIndices(r, 0, 1, 2); !c.Tag.Equal(want) {
		t.Fatalf("tag after second removal = %s, want %s", c.Tag.Sparse(), want.Sparse())
	}
	c.add(d)
	if want := bitvec.FromIndices(r, 0, 1, 2, 3, 9); !c.Tag.Equal(want) {
		t.Fatalf("tag after re-add = %s, want %s", c.Tag.Sparse(), want.Sparse())
	}
	if c.Size != 8 {
		t.Fatalf("size %d, want 8", c.Size)
	}
}
