package core

import (
	"context"
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
	if _, err := Distribute(chunks, figure7Tree(), opts); err != nil {
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

// TestSplitUpToMatchesRescan pins the heap-based splitUpTo against the
// original full-rescan selection on random cluster lists.
func TestSplitUpToMatchesRescan(t *testing.T) {
	rescan := func(d *distributor, clusters []*Cluster, k int) []*Cluster {
		for len(clusters) < k {
			best := -1
			for i, c := range clusters {
				if best < 0 || c.Size > clusters[best].Size ||
					(c.Size == clusters[best].Size && c.firstIter() < clusters[best].firstIter()) {
					best = i
				}
			}
			if best < 0 {
				clusters = append(clusters, newCluster(d.r))
				continue
			}
			a, b := d.breakCluster(clusters[best])
			clusters[best] = a
			clusters = append(clusters, b)
		}
		return clusters
	}
	build := func(rr *rand.Rand, r, n int) []*Cluster {
		var cursor int64
		out := make([]*Cluster, n)
		for i := range out {
			c := newCluster(r)
			for m := 0; m < 1+rr.Intn(3); m++ {
				cnt := int64(1 + rr.Intn(30))
				c.add(&tags.IterationChunk{Tag: bitvec.FromIndices(r, rr.Intn(r)).Sparse(),
					Iters: itset.Interval(cursor, cursor+cnt)})
				cursor += cnt
			}
			out[i] = c
		}
		return out
	}
	for seed := int64(0); seed < 40; seed++ {
		rr := rand.New(rand.NewSource(seed))
		r := 4 + rr.Intn(12)
		n := rr.Intn(8) // 0 included: the pad-with-empties path
		k := n + 1 + rr.Intn(10)
		d := &distributor{r: r}
		rr2 := rand.New(rand.NewSource(seed))
		want := rescan(d, build(rr2, r, n), k)
		rr3 := rand.New(rand.NewSource(seed))
		got := d.splitUpTo(build(rr3, r, n), k)
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d clusters, want %d", seed, len(got), len(want))
		}
		for i := range got {
			if got[i].Size != want[i].Size || !got[i].Tag.Equal(want[i].Tag) ||
				len(got[i].Members) != len(want[i].Members) {
				t.Fatalf("seed %d: cluster %d differs (size %d vs %d)", seed, i, got[i].Size, want[i].Size)
			}
			for m := range got[i].Members {
				if !got[i].Members[m].Iters.Equal(want[i].Members[m].Iters) {
					t.Fatalf("seed %d: cluster %d member %d differs", seed, i, m)
				}
			}
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
