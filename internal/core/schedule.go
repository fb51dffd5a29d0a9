package core

import (
	"context"
	"fmt"
	"slices"
	"sort"

	"repro/internal/bitvec"
	"repro/internal/hierarchy"
	"repro/internal/join"
	"repro/internal/tags"
)

// ScheduleOptions weighs the two reuse dimensions of the Figure 15
// scheduling algorithm: Alpha scales affinity with the iteration chunk
// last scheduled on the previous client of the same I/O cache group
// (horizontal, shared-cache reuse); Beta scales affinity with the chunk
// last scheduled on the same client (vertical, local reuse). The paper
// finds Alpha = Beta = 0.5 best.
type ScheduleOptions struct {
	Alpha float64
	Beta  float64
	// Workers bounds the goroutines of a run, as Options.Workers does: the
	// I/O groups, independent of each other, are scheduled on them. 0 or
	// 1 runs everything inline; the result is identical at any worker
	// count.
	Workers int
}

// DefaultScheduleOptions returns the paper's equal weighting.
func DefaultScheduleOptions() ScheduleOptions { return ScheduleOptions{Alpha: 0.5, Beta: 0.5} }

// ScheduleCtx implements the cache hierarchy-conscious iteration
// scheduling algorithm (Figure 15). Given the per-client chunk assignment
// produced by DistributeCtx, it reorders each client's chunks to maximize
// chunk-level data reuse both locally (consecutive chunks on one client)
// and across the clients sharing an I/O-level cache (same scheduling slot
// on neighbouring clients). Iteration counts are kept balanced circularly
// round by round.
//
// The input lists are not modified; the result has the same chunks per
// client in the computed execution order. The round-robin scheduling loop
// checks ctx between rounds and returns ctx.Err() when it is canceled. The
// I/O groups run on join.Each's workers (see ScheduleOptions.Workers): a
// group reads only its own clients' lists and writes only their out slots.
// Errors and panics reach the caller as join.Each gives them: the first
// failed group's error, or the panic re-raised once every worker has
// exited.
func ScheduleCtx(ctx context.Context, assign [][]*tags.IterationChunk, tree *hierarchy.Tree, opts ScheduleOptions) ([][]*tags.IterationChunk, error) {
	if tree == nil {
		return nil, fmt.Errorf("core: nil tree")
	}
	if len(assign) != tree.NumClients() {
		return nil, fmt.Errorf("core: assignment for %d clients on a %d-client tree",
			len(assign), tree.NumClients())
	}
	if opts.Alpha < 0 || opts.Beta < 0 {
		return nil, fmt.Errorf("core: negative schedule weights (α=%v, β=%v)", opts.Alpha, opts.Beta)
	}
	out := make([][]*tags.IterationChunk, len(assign))
	groups := ioGroups(tree)
	if err := join.Each(opts.Workers, len(groups), func(_, i int) error {
		return scheduleGroup(ctx, assign, out, groups[i], opts)
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// ioGroups partitions the clients into groups sharing the same I/O-level
// cache (their immediate parent node), preserving client order.
func ioGroups(tree *hierarchy.Tree) [][]int {
	var groups [][]int
	seen := make(map[*hierarchy.Node]int)
	for i, leaf := range tree.Clients() {
		p := leaf.Parent
		if p == nil {
			groups = append(groups, []int{i})
			continue
		}
		gi, ok := seen[p]
		if !ok {
			gi = len(groups)
			seen[p] = gi
			groups = append(groups, nil)
		}
		groups[gi] = append(groups[gi], i)
	}
	return groups
}

// candidate is a chunk a client has left to schedule, with its tie-break
// key computed once.
type candidate struct {
	chunk *tags.IterationChunk
	key   int64
}

// scheduleGroup runs the Figure 15 inner loop for one I/O cache group.
//
// Each pick scores every chunk the client has left against the chunk last
// scheduled on its left neighbour (weighed by α) and the one last
// scheduled on the client itself (β). Chunk tags are sparse, so the two
// tags are set into reusable dense r-bit views for the pick, a candidate's
// score looks up its few set bits there, and the same bits are cleared
// after: a score costs O(set bits) instead of two r/64-word AndPopCounts.
func scheduleGroup(ctx context.Context, assign, out [][]*tags.IterationChunk, group []int, opts ScheduleOptions) error {
	n := len(group)
	total := 0
	for _, c := range group {
		total += len(assign[c])
	}
	// Each client's candidates and schedule are capped windows of one
	// slab each, sized to its chunk count; a client with none keeps a nil
	// schedule.
	cands := make([]candidate, total)
	slots := make([]*tags.IterationChunk, total)
	remaining := make([][]candidate, n)
	scheduled := make([][]*tags.IterationChunk, n)
	r, off := 0, 0
	for gi, c := range group {
		m := len(assign[c])
		rem := cands[off : off+m : off+m]
		for i, x := range assign[c] {
			rem[i] = candidate{x, chunkKey(x)}
			r = x.Tag.Len()
		}
		remaining[gi] = rem
		if m > 0 {
			scheduled[gi] = slots[off : off : off+m]
		}
		off += m
	}
	counts := make([]int64, n)
	last := make([]*tags.IterationChunk, n) // last chunk scheduled per client
	leftView, ownView := bitvec.New(r), bitvec.New(r)

	pending := func() bool {
		for _, rem := range remaining {
			if len(rem) > 0 {
				return true
			}
		}
		return false
	}

	// takeBest removes and returns the chunk of remaining[gi] with the
	// highest score against left and own (either may be nil); ties resolve
	// to the smaller chunkKey, then the earlier position.
	takeBest := func(gi int, left, own *tags.IterationChunk) *tags.IterationChunk {
		if left != nil {
			left.Tag.OrInto(leftView)
		}
		if own != nil {
			own.Tag.OrInto(ownView)
		}
		dot := func(x *tags.IterationChunk, view bitvec.Vector) float64 {
			return float64(x.Tag.AndPopCount(view))
		}
		best := -1
		var bestScore float64
		var bestKey int64
		for i, c := range remaining[gi] {
			var s float64
			switch {
			case gi == 0 && own == nil:
				// Fewest data chunks first.
				s = -float64(c.chunk.Tag.PopCount())
			case own == nil:
				s = opts.Alpha * dot(c.chunk, leftView)
			case gi == 0:
				s = opts.Beta * dot(c.chunk, ownView)
			default:
				s = opts.Alpha*dot(c.chunk, leftView) + opts.Beta*dot(c.chunk, ownView)
			}
			if best < 0 || s > bestScore || (s == bestScore && c.key < bestKey) {
				best, bestScore, bestKey = i, s, c.key
			}
		}
		unview(leftView, left)
		unview(ownView, own)
		c := remaining[gi][best].chunk
		remaining[gi] = slices.Delete(remaining[gi], best, best+1)
		return c
	}

	put := func(gi int, c *tags.IterationChunk) {
		scheduled[gi] = append(scheduled[gi], c)
		counts[gi] += c.Count()
		last[gi] = c
	}

	var round int
	for pending() {
		if round++; round%ctxCheckInterval == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		for gi := 0; gi < n; gi++ {
			if len(remaining[gi]) == 0 {
				continue
			}
			// The balance bound: the first client matches the last client
			// of the previous round (circular); others match their left
			// neighbour.
			boundIdx := gi - 1
			if gi == 0 {
				boundIdx = n - 1
			}
			// The first client has no left neighbour to reuse from.
			var left *tags.IterationChunk
			if gi > 0 {
				left = last[gi-1]
			}
			first := true
			for len(remaining[gi]) > 0 && (first || counts[gi] < counts[boundIdx]) {
				first = false
				put(gi, takeBest(gi, left, last[gi]))
			}
		}
	}
	for gi, c := range group {
		out[c] = scheduled[gi]
	}
	return nil
}

// unview clears the bits of x's tag from view, undoing OrInto; a nil x
// set none.
func unview(view bitvec.Vector, x *tags.IterationChunk) {
	if x == nil {
		return
	}
	for _, b := range x.Tag.Bits() {
		view.Clear(int(b))
	}
}

// chunkKey orders chunks deterministically (by nest, then first iteration).
func chunkKey(c *tags.IterationChunk) int64 {
	if c.Iters.IsEmpty() {
		return int64(c.Nest) << 40
	}
	return int64(c.Nest)<<40 + c.Iters.Min()
}

// MergeChunks fuses several iteration chunks into one super-chunk: tags are
// OR-ed, iteration sets unioned. Used by the dependence-handling mode that
// pre-clusters dependent chunks (Section 5.4, first alternative — the
// "infinite edge weight" strategy). All chunks must come from the same nest.
func MergeChunks(chunks []*tags.IterationChunk) *tags.IterationChunk {
	if len(chunks) == 0 {
		panic("core: MergeChunks of nothing")
	}
	tag := chunks[0].Tag.Dense()
	iters := chunks[0].Iters.Clone()
	for _, c := range chunks[1:] {
		if c.Nest != chunks[0].Nest {
			panic("core: MergeChunks across nests")
		}
		c.Tag.OrInto(tag)
		iters = iters.Union(c.Iters)
	}
	return &tags.IterationChunk{Tag: tag.Sparse(), Iters: iters, Nest: chunks[0].Nest}
}

// unionFind is a small DSU used by PreMergeDependent.
type unionFind []int

func newUnionFind(n int) unionFind {
	u := make(unionFind, n)
	for i := range u {
		u[i] = i
	}
	return u
}

func (u unionFind) find(x int) int {
	for u[x] != x {
		u[x] = u[u[x]]
		x = u[x]
	}
	return x
}

func (u unionFind) union(a, b int) { u[u.find(a)] = u.find(b) }

// PreMergeDependent implements the first Section 5.4 dependence strategy:
// chunks connected by a dependence edge are fused into a single super-chunk
// (equivalent to an infinite-weight graph edge), guaranteeing that
// dependent iterations land on the same client and need no inter-processor
// synchronization. pairs lists dependent chunk index pairs.
func PreMergeDependent(chunks []*tags.IterationChunk, pairs [][2]int) []*tags.IterationChunk {
	if len(pairs) == 0 {
		return chunks
	}
	u := newUnionFind(len(chunks))
	for _, p := range pairs {
		u.union(p[0], p[1])
	}
	groups := make(map[int][]*tags.IterationChunk)
	var roots []int
	for i, c := range chunks {
		r := u.find(i)
		if _, ok := groups[r]; !ok {
			roots = append(roots, r)
		}
		groups[r] = append(groups[r], c)
	}
	sort.Ints(roots)
	out := make([]*tags.IterationChunk, 0, len(roots))
	for _, r := range roots {
		g := groups[r]
		if len(g) == 1 {
			out = append(out, g[0])
		} else {
			out = append(out, MergeChunks(g))
		}
	}
	return out
}
