package core

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/itset"
	"repro/internal/tags"
)

// The equivalence tests hold the production merge and balance loops to the
// reference loops in reference_test.go at the function level: both sides
// get freshly built clusters over cloned chunks, and the clusters they
// return must match member for member.

// equivChunks builds n chunks with r-bit tags (each bit set with
// probability density, at least one bit unless density is 0) and
// consecutive iteration ranges. bigEvery > 0 makes every bigEvery-th chunk
// large, so balancing must split it; emptyEvery > 0 makes every
// emptyEvery-th chunk iteration-free.
func equivChunks(rr *rand.Rand, r, n int, density float64, bigEvery, emptyEvery int) []*tags.IterationChunk {
	chunks := make([]*tags.IterationChunk, n)
	var cursor int64
	for i := range chunks {
		tag := bitvec.New(r)
		for b := 0; b < r; b++ {
			if rr.Float64() < density {
				tag.Set(b)
			}
		}
		if density > 0 && tag.IsZero() {
			tag.Set(rr.Intn(r))
		}
		cnt := int64(1 + rr.Intn(40))
		switch {
		case emptyEvery > 0 && i%emptyEvery == emptyEvery-1:
			cnt = 0
		case bigEvery > 0 && i%bigEvery == bigEvery-1:
			cnt = 200 + rr.Int63n(2000)
		}
		chunks[i] = &tags.IterationChunk{Tag: tag.Sparse(), Iters: itset.Interval(cursor, cursor+cnt)}
		cursor += cnt
	}
	return chunks
}

// sameTag reports whether two chunk tags have the same width and bits.
func sameTag(a, b bitvec.Sparse) bool {
	return a.Len() == b.Len() && slices.Equal(a.Bits(), b.Bits())
}

// buildClusters gives one engine its own clusters: fresh structs and tags
// over cloned chunks, one cluster per group (an empty group is an empty
// cluster).
func buildClusters(r int, groups [][]*tags.IterationChunk) []*Cluster {
	out := make([]*Cluster, len(groups))
	for i, g := range groups {
		c := newCluster(r)
		for _, m := range cloneChunks(g) {
			c.add(m)
		}
		out[i] = c
	}
	return out
}

// diffClusters describes the first difference between two cluster lists,
// or returns "" when they match member for member. It also checks got's
// internal size cache against its members.
func diffClusters(got, want []*Cluster) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d clusters, want %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Size != w.Size || len(g.Members) != len(w.Members) || !g.Tag.Equal(w.Tag) {
			return fmt.Sprintf("cluster %d: size %d, %d members; want size %d, %d members (tags equal: %v)",
				i, g.Size, len(g.Members), w.Size, len(w.Members), g.Tag.Equal(w.Tag))
		}
		var size int64
		for m, gm := range g.Members {
			wm := w.Members[m]
			if gm.Nest != wm.Nest || !gm.Iters.Equal(wm.Iters) || !sameTag(gm.Tag, wm.Tag) {
				return fmt.Sprintf("cluster %d member %d: %v, want %v", i, m, gm.Iters, wm.Iters)
			}
			if g.sizes[m] != gm.Count() {
				return fmt.Sprintf("cluster %d member %d: cached size %d, count %d", i, m, g.sizes[m], gm.Count())
			}
			size += g.sizes[m]
		}
		if size != g.Size {
			return fmt.Sprintf("cluster %d: size %d, members sum to %d", i, g.Size, size)
		}
	}
	return ""
}

// randomGroups partitions chunks into singletons (the split Stage 0 input)
// or, when grouped, into contiguous multi-member groups (the shape
// RebalanceClusters hands the merge loop).
func randomGroups(rr *rand.Rand, chunks []*tags.IterationChunk, grouped bool) [][]*tags.IterationChunk {
	var groups [][]*tags.IterationChunk
	for i := 0; i < len(chunks); {
		sz := 1
		if grouped {
			sz = 1 + rr.Intn(6)
		}
		end := min(i+sz, len(chunks))
		groups = append(groups, chunks[i:end])
		i = end
	}
	return groups
}

// compareRuns runs fn once as the production side and once as the
// reference side, each on its own distributor, and returns the difference
// of their clusters ("" when identical). Both runs are compared before
// either releases its scratch, which backs the returned cluster tables.
func compareRuns(opts Options, r int, fn func(d *distributor, ref bool) ([]*Cluster, error)) (string, error) {
	var out [2][]*Cluster
	for i := range out {
		d := &distributor{ctx: context.Background(), opts: opts, r: r}
		defer d.release()
		var err error
		if out[i], err = fn(d, i == 1); err != nil {
			return "", err
		}
	}
	return diffClusters(out[0], out[1]), nil
}

// mergeBoth runs the production merge and the dense reference on cloned
// inputs and returns the difference ("" when identical).
func mergeBoth(r, workers, k int, groups [][]*tags.IterationChunk) (string, error) {
	return compareRuns(Options{Workers: workers}, r, func(d *distributor, dense bool) ([]*Cluster, error) {
		if dense {
			return d.mergeClustersDense(buildClusters(r, groups), k)
		}
		return d.mergeClusters(buildClusters(r, groups), k)
	})
}

// TestDenseSparseEquivalenceProperty is the proof obligation of the sparse
// merge loop: across randomized inputs (tag width, cluster count, tag
// density, singleton or multi-member clusters, worker count, target k), the
// sparse seeding, posting-driven re-pushes and lazy zero-weight drain merge
// exactly like the dense O(n²) reference. Every fifth case is wide (r ≥ 512,
// hundreds of clusters); its dense-tag variant runs the crowded-postings
// fallback scan.
func TestDenseSparseEquivalenceProperty(t *testing.T) {
	cases := 150
	if testing.Short() {
		cases = 40
	}
	for c := 0; c < cases; c++ {
		rr := rand.New(rand.NewSource(int64(c)))
		r, n := 4+rr.Intn(61), 2+rr.Intn(47)
		density := []float64{0.02, 0.05, 0.1, 0.25, 0.5, 0.9}[rr.Intn(6)]
		if c%5 == 4 {
			r, n = 512+rr.Intn(513), 100+rr.Intn(251)
			density = []float64{2 / float64(r), 6 / float64(r), 0.02, 0.4}[rr.Intn(4)]
		}
		workers := 1 + rr.Intn(4)
		chunks := equivChunks(rr, r, n, density, 0, 0)
		groups := randomGroups(rr, chunks, rr.Intn(3) == 0)
		k := 1 + rr.Intn(min(len(groups), 64))
		diff, err := mergeBoth(r, workers, k, groups)
		if err != nil {
			t.Fatalf("case %d: %v", c, err)
		}
		if diff != "" {
			t.Fatalf("case %d (r=%d n=%d density=%v workers=%d k=%d): %s", c, r, len(groups), density, workers, k, diff)
		}
	}
}

// TestDenseSparseEquivalenceEdgeTags pins the two degenerate tag patterns
// through the whole split stage (merge, split-up, balance) against the
// reference loops: all-zero tags (no pair is ever generated; the merge is
// pure lazy drain) and all-ones tags (every pair is generated; the
// counting pass hands off to the dense-scan generator and the merge loop
// to the live-cluster scan).
func TestDenseSparseEquivalenceEdgeTags(t *testing.T) {
	for _, tc := range []struct {
		name    string
		density float64
	}{
		{"all-zero-tags", 0},
		{"all-ones-tags", 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(0); seed < 8; seed++ {
				rr := rand.New(rand.NewSource(seed))
				r, n := 8+rr.Intn(40), 2+rr.Intn(60)
				chunks := equivChunks(rr, r, n, tc.density, 7, 0)
				groups := randomGroups(rr, chunks, false)
				k := 1 + rr.Intn(12)
				weights := make([]int64, k)
				for i := range weights {
					weights[i] = 1 + rr.Int63n(3)
				}
				diff, err := compareRuns(DefaultOptions(), r, func(d *distributor, ref bool) ([]*Cluster, error) {
					clusters := buildClusters(r, groups)
					var err error
					if ref {
						clusters, err = d.mergeClustersDense(clusters, k)
					} else {
						clusters, err = d.mergeClusters(clusters, k)
					}
					if err != nil {
						return nil, err
					}
					clusters = d.splitUpTo(clusters, k)
					if ref {
						return clusters, d.balanceRef(clusters, weights)
					}
					return clusters, d.balance(clusters, weights)
				})
				if err != nil {
					t.Fatal(err)
				}
				if diff != "" {
					t.Fatalf("seed %d (r=%d n=%d k=%d): %s", seed, r, n, k, diff)
				}
			}
		})
	}
}

// TestBalanceMatchesReference holds the cached-row balance loop to the
// reference loop (a stable re-sort of every slot and a full-width
// AndPopCount per donor member, every round). Inputs cover wide tags and
// hundreds of members, skewed clusters that keep one donor for hundreds
// of rounds, large chunks whose eviction must split, empty chunks and
// empty clusters (rank ties), unequal weights, a zero threshold and the
// widened slack RebalanceClusters sets. Some cases start the row cache's
// generation counter just below its wrap-around.
func TestBalanceMatchesReference(t *testing.T) {
	cases := 160
	if testing.Short() {
		cases = 40
	}
	var splits, longTenures int
	for c := 0; c < cases; c++ {
		rr := rand.New(rand.NewSource(int64(1000 + c)))
		r, n := 8+rr.Intn(57), 2+rr.Intn(60)
		density := 3 / float64(r)
		if c%4 == 3 {
			r, n = 512+rr.Intn(513), 100+rr.Intn(401)
			density = 4 / float64(r)
		}
		chunks := equivChunks(rr, r, n, density, []int{0, 5, 17}[rr.Intn(3)], []int{0, 0, 9}[rr.Intn(3)])
		k := 2 + rr.Intn(min(n, 48))
		// Skewed membership: cluster 0 takes a share of the chunks, so it
		// donates for many rounds in a row; a few clusters may stay empty.
		skew := []float64{0, 0.5, 0.9}[rr.Intn(3)]
		groups := make([][]*tags.IterationChunk, k)
		for _, ch := range chunks {
			g := rr.Intn(k)
			if rr.Float64() < skew {
				g = 0
			}
			groups[g] = append(groups[g], ch)
		}
		weights := make([]int64, k)
		for i := range weights {
			weights[i] = 1
			if rr.Intn(2) == 0 {
				weights[i] += rr.Int63n(4)
			}
		}
		opts := Options{BalanceThreshold: []float64{0, 0.02, 0.1, 0.5}[rr.Intn(4)]}
		if rr.Intn(3) == 0 {
			opts.slackExtra = 1 + rr.Int63n(8)
		}
		nearWrap := rr.Intn(4) == 0
		members := 0
		diff, err := compareRuns(opts, r, func(d *distributor, ref bool) ([]*Cluster, error) {
			clusters := buildClusters(r, groups)
			if ref {
				return clusters, d.balanceRef(clusters, weights)
			}
			if nearWrap {
				// Stamps from an earlier near-wrap run could hold the
				// generations this run is about to reuse.
				rows := &d.scratch().rows
				clear(rows.stamp[:cap(rows.stamp)])
				rows.gen = ^uint32(0) - 2
			}
			err := d.balance(clusters, weights)
			for _, cl := range clusters {
				members += len(cl.Members)
			}
			return clusters, err
		})
		if err != nil {
			t.Fatal(err)
		}
		if diff != "" {
			t.Fatalf("case %d (r=%d n=%d k=%d skew=%v opts=%+v): %s", c, r, n, k, skew, opts, diff)
		}
		if members > n {
			splits++
		}
		if skew == 0.9 && len(groups[0]) >= 100 {
			longTenures++
		}
	}
	if splits == 0 || longTenures == 0 {
		t.Fatalf("inputs exercised %d splitting and %d long-tenure cases; want both > 0", splits, longTenures)
	}
}

// balanceBoth runs the production balance loop and the reference loop on
// clusters built from groups and returns the difference ("" when
// identical).
func balanceBoth(opts Options, r int, groups [][]*tags.IterationChunk, weights []int64) (string, error) {
	return compareRuns(opts, r, func(d *distributor, ref bool) ([]*Cluster, error) {
		clusters := buildClusters(r, groups)
		if ref {
			return clusters, d.balanceRef(clusters, weights)
		}
		return clusters, d.balance(clusters, weights)
	})
}

// unitWeights returns k equal child weights.
func unitWeights(k int) []int64 {
	w := make([]int64, k)
	for i := range w {
		w[i] = 1
	}
	return w
}

// TestBalanceRowBudget drives one donor tenure through more recipients
// than the row cache may hold at once ((k−1)·|donor| > rowBudget), so the
// cache must drop and rebuild rows mid-tenure, and still match the
// reference loop.
func TestBalanceRowBudget(t *testing.T) {
	const r, donorMembers, k = 512, 2000, 700
	if (k-1)*donorMembers <= rowBudget {
		t.Fatalf("input too small to exceed the row budget")
	}
	rr := rand.New(rand.NewSource(5))
	chunks := equivChunks(rr, r, donorMembers+k-1, 4.0/r, 0, 0)
	groups := make([][]*tags.IterationChunk, k)
	groups[0] = chunks[:donorMembers]
	for i := 1; i < k; i++ {
		groups[i] = chunks[donorMembers+i-1 : donorMembers+i]
	}
	diff, err := balanceBoth(DefaultOptions(), r, groups, unitWeights(k))
	if err != nil {
		t.Fatal(err)
	}
	if diff != "" {
		t.Fatal(diff)
	}
}

// shapedGroups builds hand-shaped clusters over 8-bit tags: groups[g][i]
// is member i of cluster g, its iteration count followed by its tag bits.
// Iteration ranges are consecutive in listing order.
func shapedGroups(groups [][][]int) [][]*tags.IterationChunk {
	out := make([][]*tags.IterationChunk, len(groups))
	var cursor int64
	for g, members := range groups {
		for _, m := range members {
			cnt := int64(m[0])
			ic := &tags.IterationChunk{Tag: bitvec.FromIndices(8, m[1:]...).Sparse(), Iters: itset.Interval(cursor, cursor+cnt)}
			out[g] = append(out[g], ic)
			cursor += cnt
		}
	}
	return out
}

// TestBalanceShapes pins two paths of the tree-driven balance loop that
// cold plans never take, on hand-shaped clusters, against the reference
// loop.
func TestBalanceShapes(t *testing.T) {
	for _, tc := range []struct {
		name   string
		groups [][][]int
	}{
		// The donor member with the highest dot is larger than a whole
		// move may be, while lower-dot members fit. The donor holds 110 of
		// 120 iterations (limits 54–66 per cluster), so a whole move may
		// take at most 56: the 60-iteration chunk {0,1,2} tops the
		// recipient's dots every round, and the picks must fall back to
		// the best member that fits — first the 10-iteration {0} (dot 1),
		// then the 40-iteration {5} (dot 0) — instead of splitting or
		// moving the top one.
		{"top-dot-too-big", [][][]int{
			{{60, 0, 1, 2}, {40, 5}, {10, 0}},
			{{10, 0, 1, 2}},
		}},
		// One donor tenure splits three times. The donor's seven members
		// fill seven of its trees' eight leaves. The 356-iteration chunk
		// splits first: its keep takes the last free leaf, and a later
		// round moves that keep whole past a top-dot member too big to
		// move. The 359-iteration chunk's keep then outgrows the trees,
		// and its own split reads trees rebuilt at sixteen leaves from
		// posting nodes repointed at each keep.
		{"splits-outgrow-tree", [][][]int{
			{{28, 1}, {356, 1, 2, 3}, {29, 2, 6}, {359, 0, 1, 5}, {46, 3, 4}, {30, 3, 4, 5}, {279, 5}},
			{{59, 0, 4}},
			{{98, 3, 4, 5}},
			{{32, 0, 2}, {55, 1}},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			diff, err := balanceBoth(DefaultOptions(), 8, shapedGroups(tc.groups), unitWeights(len(tc.groups)))
			if err != nil {
				t.Fatal(err)
			}
			if diff != "" {
				t.Fatal(diff)
			}
		})
	}
}
