// Package core implements the paper's contribution: the cache
// hierarchy-conscious loop iteration distribution algorithm (Figure 5) and
// the cache hierarchy-conscious iteration scheduling algorithm (Figure 15),
// plus the Section 5.4 extensions (dependence handling and multi-nest
// distribution).
//
// Distribution walks the storage cache hierarchy tree top-down. At each
// tree node the iteration chunks assigned to that node are clustered into
// one cluster per child — greedily merging the pair of clusters whose tags
// have the maximal dot product (Stage 1), then load-balancing cluster sizes
// within a balance threshold by evicting the chunk with maximal affinity to
// the recipient, splitting chunks when no whole chunk fits (Stage 2). The
// leaves of the recursion are the k client nodes.
//
// A cluster's tag is the "bitwise sum" of its members' tags in the boolean
// sense (bitwise OR), and the dot product of two tags is the number of
// common "1" bits. This is the reading under which the algorithm reproduces
// the paper's Figure 9 walk-through exactly; an integer-count reading makes
// greedy merging collapse onto the largest cluster (its tag dominates every
// dot product) and contradicts the example.
package core

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"
	"time"

	"repro/internal/bitvec"
	"repro/internal/hierarchy"
	// memberKey and firstIter, on balance's hot path, call itset.Set's
	// IsEmpty and Min. The compiler inlines another package's methods only
	// from the export data of a package this one imports, so without this
	// import neither key inlines (ci.sh checks that both do).
	_ "repro/internal/itset"
	"repro/internal/join"
	"repro/internal/tags"
)

// Options tunes the distribution algorithm.
type Options struct {
	// BalanceThreshold is the maximum tolerable imbalance of per-cluster
	// iteration counts, as a fraction of the ideal share (the paper's
	// BThres; its experiments use 10%).
	BalanceThreshold float64
	// Workers bounds the goroutines of a run: the similarity pass shards
	// its rows over them, and the child subtrees below the first split of
	// at least 1,024 chunks run on them, each subtree with Workers = 1. 0
	// or 1 runs everything inline; the result is identical at any worker
	// count.
	Workers int
	// Clock, if non-nil, observes the wall time of the internal phases
	// ("similarity", "cluster", "balance"), accumulated across the
	// recursive hierarchy walk. Subtree workers report concurrently, so
	// the phases' sum is busy time and can exceed the run's wall time.
	// Implementations must be cheap and safe for concurrent use. A Clock
	// that also implements PairStatsRecorder additionally receives the
	// similarity pair-generation counts.
	Clock PhaseClock

	// slackExtra widens every balance slot's slack by a flat iteration
	// count. Zero in full runs; RebalanceClusters sets it to absorb the
	// per-level minimum slack a hierarchical run legitimately accumulates,
	// so a zero-drift repair never sees a donor.
	slackExtra int64
}

// PhaseClock observes the distributor's named algorithm phases. Each phase
// is reported after the fact as one (name, start, duration) call, so the
// steady-state path allocates nothing per phase per hierarchy node.
// Subtree workers (see Options.Workers) call RecordPhase concurrently. A
// nil PhaseClock in Options disables instrumentation.
type PhaseClock interface {
	RecordPhase(name string, start time.Time, d time.Duration)
}

// DefaultOptions returns the paper's experimental settings.
func DefaultOptions() Options { return Options{BalanceThreshold: 0.10} }

// Cluster is an intermediate or final group of iteration chunks with its
// aggregate tag (bitwise OR of member tags).
type Cluster struct {
	Members []*tags.IterationChunk
	Tag     bitvec.Vector
	Size    int64
	// sizes caches Members[i].Count() (invariant for a given chunk), so the
	// balancing stage's per-round donor scans read a slice instead of
	// re-walking each member's iteration-set runs.
	sizes []int64
	// counts, once materialized by the cluster's first balance eviction,
	// carries per-bit reference counts of the member tags so removals
	// decrement in O(popcount(member)) instead of re-OR-ing every remaining
	// member. While counts is non-nil, Tag aliases counts.Vec(). The merge
	// stage never pays for it: counts stays nil until load balancing evicts.
	counts *bitvec.Counted
}

func newCluster(r int) *Cluster { return &Cluster{Tag: bitvec.New(r)} }

// ranked pairs a child index with its leaf weight for split's rank-wise
// cluster-to-child assignment.
type ranked struct {
	idx int
	w   int64
}

// bump is a generic bump allocator: take carves a zeroed self-capped
// window, reset rewinds (and re-zeroes the used region, so pointer-typed
// blocks never pin a dead request's objects while parked in the pool).
// Growth never moves a window already handed out. The scratch resets its
// tag words at every split and every other bump only when the run releases
// it, so a window lives until the next split or the end of the run.
type bump[T any] struct {
	blocks [][]T
	cur    int
	off    int
}

// bumpBlock is the default elements-per-block; takes larger than a block
// get a block of their own.
const bumpBlock = 1024

// take carves a zeroed n-element window. The zeroing invariant is
// maintained by reset, so take itself never clears.
func (a *bump[T]) take(n int) []T {
	for {
		if a.cur < len(a.blocks) {
			blk := a.blocks[a.cur]
			if a.off+n <= len(blk) {
				w := blk[a.off : a.off+n : a.off+n]
				a.off += n
				return w
			}
			a.cur++
			a.off = 0
			continue
		}
		sz := bumpBlock
		if n > sz {
			sz = n
		}
		a.blocks = append(a.blocks, make([]T, sz))
	}
}

// reset rewinds the allocator and re-zeroes everything handed out since
// the last reset. Every previously taken window becomes invalid.
func (a *bump[T]) reset() {
	for i := 0; i < a.cur && i < len(a.blocks); i++ {
		clear(a.blocks[i])
	}
	if a.cur < len(a.blocks) {
		clear(a.blocks[a.cur][:a.off])
	}
	a.cur, a.off = 0, 0
}

// distScratch is the recycled working state of one distribution run: the
// bump allocators for cluster tags, cluster structs, pointer tables and
// balance bookkeeping, plus every per-node slice of the merge loop. A run
// acquires it lazily from distScratchPool and releases it when the run
// ends, so repeat requests of the same shape stop allocating once the pool
// is warm. The tag words are reset at the start of every split call — by
// then the parent level's cluster tags are dead (only member lists survive
// a split; see the escape notes in split) — while the other bumps rewind
// only on release, because cluster structs and pointer tables of one level
// are still read while the children recurse.
type distScratch struct {
	tags     bump[uint64]        // words of dense cluster tags and counted OR views
	simRows  [][]int32           // set bits of each cluster, handed to pairShards
	simBits  []int32             // slab of the multi-member clusters' rows
	postings bitvec.PostingIndex // similarity inverted index, walked by the merge loop
	active   []bool              // per-node liveness in the merge loop
	parent   []int32             // owner union-find
	mark     []int32             // generation stamps for push dedup
	newBits  []int32             // the bits an absorb added to the survivor's tag
	next     []int32             // per input cluster: the next one of its merge list, -1 ends
	tail     []int32             // per merge list head: its last cluster
	byWeight []ranked            // split's child-rank table

	clusters bump[Cluster]        // cluster structs (Stage 0 slabs + splits)
	ptrs     bump[*Cluster]       // cluster pointer tables
	ints     bump[int64]          // size slabs + balance limit tables
	counts32 bump[int32]          // counted-tag reference counts
	counted  bump[bitvec.Counted] // counted-tag structs
	order    []int                // balance rank order
	rows     donorRows            // balance's per-donor dot-row cache
	dots     []int32              // a scanned donor's dots with the recipient
	shards   []*simScratch        // pairShards' output; empty between splits
	seeds    []mergePair          // the seed run, in pop order
	dotAt    []int                // popOrder's per-dot counts, all-zero between calls
	queue    dotQueue             // the merge's push-on-increase entries
}

var distScratchPool = sync.Pool{New: func() any { return new(distScratch) }}

// scratch lazily acquires the run's recycled scratch.
func (d *distributor) scratch() *distScratch {
	if d.scr == nil {
		d.scr = distScratchPool.Get().(*distScratch)
	}
	return d.scr
}

// release returns the scratch to the pool. The bump resets invalidate
// everything carved from them, so release must come after the last use of
// any cluster of the run (the returned assignment only carries member
// chunk lists, never clusters or their tags, so running it on exit is
// safe).
func (d *distributor) release() {
	if d.scr != nil {
		d.scr.tags.reset()
		d.scr.clusters.reset()
		d.scr.ptrs.reset()
		d.scr.ints.reset()
		d.scr.counts32.reset()
		d.scr.counted.reset()
		distScratchPool.Put(d.scr)
		d.scr = nil
	}
}

// newArenaCluster carves an empty cluster — struct and tag both — from the
// run's recycled storage. The struct lives until the run ends (it can
// outlive the call that made it, but never the run); the tag until the
// next split.
func (d *distributor) newArenaCluster() *Cluster {
	scr := d.scratch()
	c := &scr.clusters.take(1)[0]
	c.Tag = scr.tag(d.r)
	return c
}

// tag carves a zeroed n-bit vector from the split-scoped tag words.
func (scr *distScratch) tag(n int) bitvec.Vector {
	return bitvec.Over(n, scr.tags.take((n+63)/64))
}

// grow resizes s to n without zeroing retained storage; callers overwrite
// every entry before reading.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

func (c *Cluster) add(ic *tags.IterationChunk) {
	c.Members = append(c.Members, ic)
	if c.counts != nil {
		c.counts.Add(ic.Tag)
	} else {
		ic.Tag.OrInto(c.Tag)
	}
	cnt := ic.Count()
	c.sizes = append(c.sizes, cnt)
	c.Size += cnt
}

// ensureCounts materializes the counted tag from the current members. The
// struct, count table and OR view come from the run's recycled storage (the
// view from the split-scoped tag words is safe: counts are only used by
// balance, which finishes before the next split resets them).
func (c *Cluster) ensureCounts(scr *distScratch) {
	if c.counts != nil {
		return
	}
	n := c.Tag.Len()
	ct := &scr.counted.take(1)[0]
	bitvec.InitCounted(ct, scr.tag(n), scr.counts32.take(n))
	c.counts = ct
	for _, m := range c.Members {
		c.counts.Add(m.Tag)
	}
	c.Tag = c.counts.Vec()
}

// memberKey is the deterministic ordering identity of one cluster member:
// its first iteration, disambiguated by nest. (Unlike schedule.go's
// chunkKey, an empty chunk sorts last so it never defines a cluster's
// first iteration.)
func memberKey(m *tags.IterationChunk) int64 {
	if m.Iters.IsEmpty() {
		return 1 << 62
	}
	return m.Iters.Min() + int64(m.Nest)<<40
}

// unknownFirst marks a balance slot's cached first iteration as stale; it
// sorts below every memberKey.
const unknownFirst = math.MinInt64

// firstIter is a deterministic identity for ordering clusters. It skips
// the tombstones a balance donor holds during its tenure (see donorRows).
func (c *Cluster) firstIter() int64 {
	v := int64(1) << 62
	for _, m := range c.Members {
		if m == nil {
			continue
		}
		if key := memberKey(m); key < v {
			v = key
		}
	}
	return v
}

// DistributeCtx runs the Figure 5 algorithm: it assigns the given
// iteration chunks to the client nodes of the hierarchy tree and returns
// one chunk list per client (indexed by client number). Chunks may be split
// by load balancing; the returned chunks partition the input iterations
// exactly. The sparse similarity pass, the merge loop and the balancing
// rounds check ctx periodically and return ctx.Err() when it is canceled.
// When subtrees run in parallel (see Options.Workers), it returns only
// after every worker has exited, and a panic on a worker is re-raised on
// the caller.
func DistributeCtx(ctx context.Context, chunks []*tags.IterationChunk, tree *hierarchy.Tree, opts Options) ([][]*tags.IterationChunk, error) {
	d, err := newDistributor(ctx, tree, opts, chunks)
	if err != nil {
		return nil, err
	}
	defer d.release()
	out := make([][]*tags.IterationChunk, tree.NumClients())
	clientIdx := make(map[*hierarchy.Node]int, tree.NumClients())
	for i, leaf := range tree.Clients() {
		clientIdx[leaf] = i
	}
	if err := d.assign(tree.Root, chunks, clientIdx, out); err != nil {
		return nil, err
	}
	return out, nil
}

type distributor struct {
	ctx  context.Context
	opts Options
	tree *hierarchy.Tree
	r    int
	scr  *distScratch // lazily acquired recycled scratch; see scratch()
}

// newDistributor checks a run's inputs — the tree, the balance threshold
// and one tag width across every chunk of lists — and returns its
// distributor. It returns a value so that a run's distributor can stay on
// its caller's stack.
func newDistributor(ctx context.Context, tree *hierarchy.Tree, opts Options, lists ...[]*tags.IterationChunk) (distributor, error) {
	if tree == nil {
		return distributor{}, fmt.Errorf("core: nil tree")
	}
	if err := tree.Validate(); err != nil {
		return distributor{}, err
	}
	if opts.BalanceThreshold < 0 || opts.BalanceThreshold > 1 {
		return distributor{}, fmt.Errorf("core: balance threshold %v outside [0,1]", opts.BalanceThreshold)
	}
	r := -1
	for _, l := range lists {
		for _, c := range l {
			if r < 0 {
				r = c.Tag.Len()
			} else if c.Tag.Len() != r {
				return distributor{}, fmt.Errorf("core: inconsistent tag widths %d vs %d", c.Tag.Len(), r)
			}
		}
	}
	return distributor{ctx: ctx, opts: opts, tree: tree, r: max(r, 0)}, nil
}

// phase is a value-typed in-flight phase measurement; end reports it to
// the clock. The zero phase (no clock) reports nothing.
type phase struct {
	name  string
	start time.Time
}

func (d *distributor) beginPhase(name string) phase {
	if d.opts.Clock == nil {
		return phase{}
	}
	return phase{name: name, start: time.Now()}
}

func (p phase) end(d *distributor) {
	if p.name != "" {
		d.opts.Clock.RecordPhase(p.name, p.start, time.Since(p.start))
	}
}

// assign recursively splits the chunk list of a tree node among its
// children (one hierarchy level of the Figure 5 outer loop).
func (d *distributor) assign(node *hierarchy.Node, members []*tags.IterationChunk,
	clientIdx map[*hierarchy.Node]int, out [][]*tags.IterationChunk) error {
	if node.IsLeaf() {
		out[clientIdx[node]] = members
		return nil
	}
	if len(node.Children) == 1 {
		return d.assign(node.Children[0], members, clientIdx, out)
	}
	weights := d.scratch().ints.take(len(node.Children))
	for i, ch := range node.Children {
		weights[i] = int64(d.tree.NumLeavesUnder(ch))
	}
	clusters, err := d.split(members, weights)
	if err != nil {
		return err
	}
	if d.opts.Workers > 1 && len(members) >= fanOutMembers {
		return d.fanOut(node.Children, clusters, clientIdx, out)
	}
	for i, ch := range node.Children {
		if err := d.assign(ch, clusters[i].Members, clientIdx, out); err != nil {
			return err
		}
	}
	return nil
}

// fanOutMembers is the smallest split whose child subtrees run in
// parallel. Smaller plans take a few milliseconds whole (the paper's
// applications have at most 512 chunks): a fan-out there gains no latency
// and holds a second worker's scratch, which cost cache_hits ~20% peak
// RSS in a trial.
const fanOutMembers = 1024

// fanOut runs the subtrees below children, child i taking clusters[i]'s
// members, on min(Workers, len(children)) workers of join.Each. The
// subtrees are independent clustering problems — disjoint chunks and
// disjoint clients — and share nothing mutable: each split copies its
// members into fresh slabs, leaves write disjoint out slots, and chunks and
// the tree are only read. So the plan does not depend on the schedule. The
// caller is worker 0 and keeps its scratch; each other worker takes its own
// from the pool and releases it after the join. Every worker runs with
// Workers = 1, so nothing below fans out again. Errors and panics reach
// the caller as join.Each gives them: the first failed child's error, or
// the panic re-raised once every worker has exited.
func (d *distributor) fanOut(children []*hierarchy.Node, clusters []*Cluster,
	clientIdx map[*hierarchy.Node]int, out [][]*tags.IterationChunk) error {
	lists := make([][]*tags.IterationChunk, len(children))
	for i := range lists {
		lists[i] = clusters[i].Members
	}
	wds := make([]distributor, min(d.opts.Workers, len(children)))
	for w := range wds {
		wds[w] = *d
		wds[w].opts.Workers = 1
		if w > 0 {
			wds[w].scr = nil
		}
	}
	defer func() {
		for w := 1; w < len(wds); w++ {
			wds[w].release()
		}
	}()
	return join.Each(len(wds), len(children), func(w, i int) error {
		return wds[w].assign(children[i], lists[i], clientIdx, out)
	})
}

// split partitions chunks into len(weights) clusters whose sizes are
// balanced proportionally to weights (all-equal weights reproduce the
// paper exactly; unequal weights generalize to non-uniform trees).
func (d *distributor) split(members []*tags.IterationChunk, weights []int64) ([]*Cluster, error) {
	k := len(weights)
	// Stage 0: one singleton cluster per chunk. The cluster structs, member
	// lists and size caches are carved from three slab allocations instead
	// of 3·n; the self-capped windows force copy-on-grow, so later appends
	// never step on a neighbor. A singleton keeps no dense tag: its tag is
	// its member's, and the merge carves a dense one only for a cluster
	// that absorbs or survives (see mergeClusters), so a split never holds
	// n·r bits.
	//
	// Escape notes: memSlab windows CAN escape the run — a leaf assignment
	// hands out c.Members, which aliases memSlab for clusters that never
	// merged or grew — so the member and size slabs stay real allocations.
	// Cluster tags never escape (the output carries iteration-chunk member
	// lists only), and by the time this level's children recurse the parent
	// tags are no longer read, so the tags are carved from the recycled tag
	// words, reset here at the start of every split.
	n := len(members)
	scr := d.scratch()
	scr.tags.reset()
	slab := scr.clusters.take(n)
	memSlab := make([]*tags.IterationChunk, n)
	sizeSlab := scr.ints.take(n)
	clusters := scr.ptrs.take(n)
	for i, m := range members {
		c := &slab[i]
		c.Members = append(memSlab[i:i:i+1], m)
		c.sizes = append(sizeSlab[i:i:i+1], m.Count())
		c.Size = c.sizes[0]
		clusters[i] = c
	}
	// Stage 1a: agglomerative merging down to k clusters.
	clusters, err := d.mergeClusters(clusters, k)
	if err != nil {
		return nil, err
	}
	// Stage 1b: if fewer clusters than children, split until k.
	clusters = d.splitUpTo(clusters, k)
	// Stage 2: load balancing toward weighted targets.
	if err := d.balance(clusters, weights); err != nil {
		return nil, err
	}
	// Pair clusters to children rank-wise: largest cluster to the child
	// with the most leaves, deterministically.
	if cap(scr.byWeight) < k {
		scr.byWeight = make([]ranked, k)
	}
	byWeight := scr.byWeight[:k]
	for i, w := range weights {
		byWeight[i] = ranked{i, w}
	}
	slices.SortStableFunc(byWeight, func(a, b ranked) int { return cmp.Compare(b.w, a.w) })
	if cap(scr.order) < len(clusters) {
		scr.order = make([]int, len(clusters))
	}
	order := scr.order[:len(clusters)]
	firsts := scr.ints.take(len(clusters))
	for i := range order {
		order[i] = i
		firsts[i] = clusters[i].firstIter()
	}
	slices.SortStableFunc(order, func(a, b int) int {
		ca, cb := clusters[a], clusters[b]
		if ca.Size != cb.Size {
			return cmp.Compare(cb.Size, ca.Size)
		}
		return cmp.Compare(firsts[a], firsts[b])
	})
	result := scr.ptrs.take(k)
	for rank, rw := range byWeight {
		result[rw.idx] = clusters[order[rank]]
	}
	return result, nil
}

// ctxCheckInterval is how many merge-loop pops happen between cooperative
// cancellation checks.
const ctxCheckInterval = 1024

// mergeClusters implements Figure 5 Stage 1: while more clusters remain
// than needed, merge the pair with the maximal tag dot product. It pops
// exactly the pairs the dense reference (reference_test.go) pops, in the
// same order, and its survivors hold their members in the order the
// reference's eager concatenation gives, so the plan is the same.
//
// Only pairs with ω ≥ 1 are queued: the similarity pass (similarity.go)
// seeds them. A zero-weight pair never outranks a positive one, and
// merging two zero-overlap clusters cannot create overlap, so once the
// queue runs dry every remaining pair weighs 0 and the dense queue's tail
// is a fixed lexicographic drain, which the loop after the queue
// reproduces.
//
// Cluster tags only gain bits, so a live pair's weight never falls and a
// queued entry can only underestimate it. After an absorb, an entry is
// pushed only for each pair whose weight rose: the live clusters that
// share a bit with the bits the absorbed half added. Every live pair
// keeps one entry with its true weight, and an underestimate of a pair
// ranks below that entry, so the first live entry popped is a true-weight
// entry of the maximal pair. Entries with a dead endpoint are dropped on
// pop, and an absorb that adds no bit pushes nothing.
//
// The queue is two sources under one total order (dot desc, a, b), and a
// pop takes the first of their heads. The seeds never change, so they are
// a run already in pop order (see popOrder), read by a cursor: a stale
// seed costs one step. The pushed entries go into a dotQueue, one small
// heap per dot with an occupancy bit per dot. Every entry is distinct
// under the order, so the pop sequence is unique: neither the two sources
// nor the order of one merge's pushes can change it.
//
// Finding the pairs to push costs what the merge changed. A live cluster's
// tag is the OR of its original members' tags, so live j gains weight with
// the survivor a exactly when one of j's original members has an added
// bit. The similarity index lists, per bit, the original members holding
// it; walking the lists of the added bits (typically one or two) and
// resolving each entry through the owner union-find yields that set.
//
// Member lists are joined, not copied, while merging: each live cluster
// heads a linked list of the input clusters it has absorbed (a next link
// per input cluster, a tail per head), and an absorb appends the absorbed
// list in O(1). A survivor's members are then its list's member lists in
// list order, copied once into an exact-size list.
//
// A one-chunk cluster keeps no dense tag while it stays one chunk: its tag
// is its member's sparse tag, an absorb of it sets only the bits the
// survivor lacks, and a push against it scores its few set bits. A dense
// tag is carved from the split's tag words for a cluster when it first
// absorbs and for every cluster returned, so the caller gets dense tags
// throughout. Multi-member input clusters (RebalanceClusters) start dense.
func (d *distributor) mergeClusters(clusters []*Cluster, k int) ([]*Cluster, error) {
	n := len(clusters)
	if n <= k {
		for _, c := range clusters {
			d.denseTag(c)
		}
		return clusters, nil
	}
	scr := d.scratch()
	active := grow(scr.active, n)
	for i := range active {
		active[i] = true
	}
	simPhase := d.beginPhase("similarity")
	// A singleton's tag is its member's, so its set bits go to the index as
	// they are, and any dense tag it came with is dropped; only
	// multi-member clusters list their dense tag's bits, in a slab.
	if cap(scr.simRows) < n {
		scr.simRows = make([][]int32, n)
	}
	rows := scr.simRows[:n]
	slab := scr.simBits[:0]
	for i, c := range clusters {
		if len(c.Members) == 1 {
			rows[i] = c.Members[0].Tag.Bits()
			c.Tag = bitvec.Vector{}
			continue
		}
		lo := len(slab)
		slab = c.Tag.AppendSetBits(slab)
		rows[i] = slab[lo:len(slab):len(slab)]
	}
	scr.simBits = slab
	shards, err := pairShards(d.ctx, rows, d.r, d.opts.Workers, &scr.postings, scr.shards)
	clear(rows) // drop the members' bit lists: the scratch outlives the run
	simPhase.end(d)
	if err != nil {
		return nil, err
	}

	clusterPhase := d.beginPhase("cluster")
	defer func() { clusterPhase.end(d) }()
	seeds := scr.popOrder(shards, d.r)
	if rec, ok := d.opts.Clock.(PairStatsRecorder); ok {
		rec.RecordSimilarityPairs(int64(len(seeds)), int64(n)*int64(n-1)/2)
	}
	q := &scr.queue
	defer q.reset()

	// owner union-find: posting lists hold original cluster indices; find
	// resolves them to the absorbing cluster they now belong to.
	parent := grow(scr.parent, n)
	for i := range parent {
		parent[i] = int32(i)
	}
	find := func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	mark := grow(scr.mark, n) // generation stamps for push dedup
	clear(mark)               // stale stamps from a previous run could collide
	var gen int32
	bits := scr.newBits[:0]

	// The merge lists (see above): an eager absorb would re-copy the growing
	// member list on every merge, two small allocations each.
	next := grow(scr.next, n)
	tail := grow(scr.tail, n)
	for i := range next {
		next[i], tail[i] = -1, int32(i)
	}
	// Store the possibly regrown slices back so the capacity is kept.
	scr.active, scr.parent, scr.mark, scr.next, scr.tail = active, parent, mark, next, tail
	link := func(a, b int32) {
		next[tail[a]] = b
		tail[a] = tail[b]
	}

	remaining := n
	var since int
	for remaining > k {
		if since++; since >= ctxCheckInterval {
			since = 0
			if err := d.ctx.Err(); err != nil {
				return nil, err
			}
		}
		var a, b int32
		if dot := q.top(); dot > 0 && (len(seeds) == 0 || q.before(dot, seeds[0])) {
			a, b = q.pop(dot)
		} else if len(seeds) > 0 {
			a, b, seeds = seeds[0].a, seeds[0].b, seeds[1:]
		} else {
			break // sparse graph exhausted: every remaining pair weighs 0
		}
		if !active[a] || !active[b] {
			continue // stale: an endpoint was absorbed, or an old underestimate
		}
		bits = d.absorbTag(clusters[a], clusters[b], bits[:0])
		clusters[a].Size += clusters[b].Size
		link(a, b)
		active[b] = false
		parent[b] = a
		remaining--
		// If the absorbed tag added no bit, every existing entry keeps its
		// true weight and nothing is pushed.
		if len(bits) == 0 {
			continue
		}
		gen++
		tag := clusters[a].Tag
		for _, x := range bits {
			for _, i := range scr.postings.List(x) {
				j := find(i)
				if j == a || mark[j] == gen {
					continue
				}
				mark[j] = gen
				var dot int
				if cj := clusters[j]; d.single(cj) {
					dot = cj.Members[0].Tag.AndPopCount(tag)
				} else {
					dot = tag.AndPopCount(cj.Tag)
				}
				q.push(dot, min(a, j), max(a, j))
			}
		}
	}
	// Lazy zero-weight drain: the dense queue would now pop (0, a, b)
	// entries in lexicographic order, which makes the smallest active
	// index absorb the next smallest until k clusters remain.
	if remaining > k {
		first := -1
		for i := 0; i < n && remaining > k; i++ {
			if !active[i] {
				continue
			}
			if first < 0 {
				first = i
				continue
			}
			if since++; since >= ctxCheckInterval {
				since = 0
				if err := d.ctx.Err(); err != nil {
					return nil, err
				}
			}
			bits = d.absorbTag(clusters[first], clusters[i], bits[:0])
			clusters[first].Size += clusters[i].Size
			link(int32(first), int32(i))
			active[i] = false
			remaining--
		}
	}
	scr.newBits = bits
	// Materialize the deferred member lists by walking each survivor's list.
	out := scr.ptrs.take(remaining)[:0]
	for i, c := range clusters {
		if !active[i] {
			continue
		}
		if next[i] >= 0 {
			total := 0
			for j := int32(i); j >= 0; j = next[j] {
				total += len(clusters[j].Members)
			}
			// memberPad slots of headroom absorb the typical few chunks the
			// balance stage evicts into this cluster, so a recipient's first
			// adds don't immediately regrow an exact-capacity list.
			const memberPad = 4
			members := make([]*tags.IterationChunk, 0, total+memberPad)
			sizes := make([]int64, 0, total+memberPad)
			for j := int32(i); j >= 0; j = next[j] {
				members = append(members, clusters[j].Members...)
				sizes = append(sizes, clusters[j].sizes...)
			}
			c.Members = members
			c.sizes = sizes
		}
		d.denseTag(c)
		out = append(out, c)
	}
	return out, nil
}

// single reports whether c is a one-chunk cluster that keeps no dense tag:
// its tag is its member's (see mergeClusters).
func (d *distributor) single(c *Cluster) bool { return c.Tag.Len() != d.r }

// denseTag gives a one-chunk cluster without a dense tag one, carved from
// the split's tag words.
func (d *distributor) denseTag(c *Cluster) {
	if d.single(c) {
		c.Tag = d.scratch().tag(d.r)
		c.Members[0].Tag.OrInto(c.Tag)
	}
}

// absorbTag ORs b's tag into a's, carving a's dense tag first if a has
// none, and appends to dst the bits a gained. A one-chunk b costs O(its
// set bits), a dense one O(r/64).
func (d *distributor) absorbTag(a, b *Cluster, dst []int32) []int32 {
	d.denseTag(a)
	if d.single(b) {
		return b.Members[0].Tag.OrIntoNew(a.Tag, dst)
	}
	return a.Tag.OrInPlaceNew(b.Tag, dst)
}

// splitUpTo grows the cluster list to k clusters by repeatedly breaking the
// largest cluster in two (Figure 5's |csi| < NumClusters case): the largest
// size, then the earliest first iteration, then the lowest position. An
// empty list first gets one empty cluster. A scan per split is O(k) plus a
// first-iteration read on a size tie, and k is a node's child count.
func (d *distributor) splitUpTo(clusters []*Cluster, k int) []*Cluster {
	for len(clusters) < k {
		if len(clusters) == 0 {
			clusters = append(clusters, d.newArenaCluster())
			continue
		}
		best := 0
		for i, c := range clusters[1:] {
			if b := clusters[best]; c.Size > b.Size || c.Size == b.Size && c.firstIter() < b.firstIter() {
				best = i + 1
			}
		}
		a, b := d.breakCluster(clusters[best])
		clusters[best] = a
		clusters = append(clusters, b)
	}
	return clusters
}

// breakCluster splits one cluster into two of roughly equal iteration
// count. Multi-member clusters are partitioned greedily by member size;
// single-member clusters split the iteration chunk itself.
func (d *distributor) breakCluster(c *Cluster) (*Cluster, *Cluster) {
	a, b := d.newArenaCluster(), d.newArenaCluster()
	switch len(c.Members) {
	case 0:
		return a, b
	case 1:
		m := c.Members[0]
		if c.sizes[0] < 2 {
			a.add(m)
			return a, b
		}
		m1, m2 := m.Split(c.sizes[0] / 2)
		a.add(m1)
		b.add(m2)
		return a, b
	}
	// Sort member indices by cached size (descending, stable) instead of
	// re-counting each chunk inside the comparator.
	idx := make([]int, len(c.Members))
	for i := range idx {
		idx[i] = i
	}
	slices.SortStableFunc(idx, func(x, y int) int { return cmp.Compare(c.sizes[y], c.sizes[x]) })
	for _, i := range idx {
		if a.Size <= b.Size {
			a.add(c.Members[i])
		} else {
			b.add(c.Members[i])
		}
	}
	return a, b
}

// balance implements Figure 5 Stage 2: greedy eviction from over-full to
// under-full clusters maximizing the dot product of the evicted chunk's
// tag with the recipient cluster's tag; chunks are split when no whole
// chunk satisfies the limits.
//
// A round costs what the round changes. Only the donor and the recipient
// change between rounds, so the rank order is kept by an insertion pass
// that re-positions just their two slots. A donor's first round scores its
// members' set bits against the recipient's tag; from its second round in
// a row on, the donor's best member is read from a cached per-recipient
// row of dots bucketed by value (see donorRows). Most donors of a repair
// serve one round, and their index would never be read twice, while a
// cold split's one long tenure pays a single extra scan.
func (d *distributor) balance(clusters []*Cluster, weights []int64) error {
	ph := d.beginPhase("balance")
	defer func() { ph.end(d) }()
	var total, wsum int64
	for _, c := range clusters {
		total += c.Size
	}
	for _, w := range weights {
		wsum += w
	}
	if total == 0 || wsum == 0 {
		return nil
	}
	k := len(clusters)
	scr := d.scratch()
	target := scr.ints.take(k)
	uLim := scr.ints.take(k)
	lLim := scr.ints.take(k)
	// Limits are per size-rank slot: the weights sorted descending, so the
	// largest cluster is held to the largest child's share. SortFunc avoids
	// sort.Slice's reflection-built swapper allocation.
	ws := scr.ints.take(len(weights))
	copy(ws, weights)
	slices.SortFunc(ws, func(a, b int64) int { return cmp.Compare(b, a) })
	for i := 0; i < k; i++ {
		w := int64(1)
		if i < len(ws) {
			w = ws[i]
		}
		target[i] = total * w / wsum
		slack := int64(float64(target[i]) * d.opts.BalanceThreshold)
		if slack < 1 {
			slack = 1
		}
		slack += d.opts.slackExtra
		uLim[i] = target[i] + slack
		lLim[i] = target[i] - slack
		if lLim[i] < 0 {
			lLim[i] = 0
		}
	}
	nMembers := 0
	for _, c := range clusters {
		nMembers += len(c.Members)
	}
	// Slots rank clusters by size (descending), then first iteration. The
	// order slice and the firstIter cache (an O(|members|) scan otherwise
	// repeated per comparison) are maintained incrementally; a first
	// iteration that left is unknownFirst until a size tie reads it.
	// scr.order is shared with split's final ranking, which runs only after
	// balance returns.
	if cap(scr.order) < k {
		scr.order = make([]int, k)
	}
	order := scr.order[:k]
	firsts := scr.ints.take(k)
	for i := range order {
		order[i] = i
		firsts[i] = clusters[i].firstIter()
	}
	first := func(i int) int64 {
		if firsts[i] == unknownFirst {
			firsts[i] = clusters[i].firstIter()
		}
		return firsts[i]
	}
	rankCmp := func(a, b int) int {
		ca, cb := clusters[a], clusters[b]
		if ca.Size != cb.Size {
			return cmp.Compare(cb.Size, ca.Size)
		}
		return cmp.Compare(first(a), first(b))
	}
	slices.SortStableFunc(order, rankCmp)
	rows := &scr.rows
	rows.reset(k, d.r)
	defer rows.endTenure()
	var prev *Cluster // the previous round's donor
	maxRounds := 4 * (nMembers + k + 4)
	for round := 0; round < maxRounds; round++ {
		if round%ctxCheckInterval == ctxCheckInterval-1 {
			if err := d.ctx.Err(); err != nil {
				return err
			}
		}
		// Find a donor: a slot whose cluster exceeds its upper limit.
		donorSlot := -1
		for slot := 0; slot < k; slot++ {
			if clusters[order[slot]].Size > uLim[slot] {
				donorSlot = slot
				break
			}
		}
		if donorSlot < 0 {
			return nil // balanced
		}
		donor := clusters[order[donorSlot]]
		// Recipient: the most underfull slot relative to its lower limit.
		recipSlot := -1
		var worst int64 = 1 << 62
		for slot := 0; slot < k; slot++ {
			c := clusters[order[slot]]
			if c == donor {
				continue
			}
			deficit := c.Size - lLim[slot]
			if deficit < worst {
				worst = deficit
				recipSlot = slot
			}
		}
		if recipSlot < 0 {
			return nil
		}
		di, ri := order[donorSlot], order[recipSlot]
		// A donor is indexed once it stays: its first round scans its
		// members, and only a second round in a row builds its postings.
		switch donor {
		case rows.donor:
		case prev:
			rows.setDonor(donor)
		default:
			rows.endTenure()
		}
		prev = donor
		moved, whole, ok := d.evict(rows, donor, clusters[ri], ri, lLim[donorSlot], uLim[recipSlot], target[donorSlot], target[recipSlot])
		if !ok {
			return nil // no progress possible
		}
		// Incremental firsts maintenance: the recipient's first iteration
		// can only be lowered by the arriving chunk (an unknown one stays
		// unknown, since unknownFirst is below every key); the donor's
		// changes only if the chunk that attained it left whole (a split
		// keeps the leading iterations in the donor), and then it is
		// unknown: a long tenure loses its first member over and over, and
		// a rescan of the donor is read only on a size tie.
		key := memberKey(moved)
		if whole && key == firsts[di] {
			firsts[di] = unknownFirst
		}
		if key < firsts[ri] {
			firsts[ri] = key
		}
		// Re-rank. Only the donor's and the recipient's keys changed, so an
		// insertion pass moves just those two slots, in O(k) compares. It is
		// stable, so it yields exactly the order a full stable re-sort of
		// the previous order would.
		for i := 1; i < k; i++ {
			for j := i; j > 0 && rankCmp(order[j], order[j-1]) < 0; j-- {
				order[j], order[j-1] = order[j-1], order[j]
			}
		}
	}
	return nil
}

// evict moves one (possibly split) chunk from donor to recip (cluster index
// ri), choosing the chunk whose tag has maximal dot product with the
// recipient's tag; on equal dots the first position in donor.Members wins.
// It returns the chunk that arrived at the recipient and whether it left
// the donor whole (false: the donor kept the leading part of a split); ok
// is false when no move is possible.
//
// The dots come from the recipient's row when rows holds donor's tenure,
// and otherwise from a scan of the donor's members, O(their set bits) with
// no table and no row. The two differ only in how a member leaves: as a
// tombstone in an indexed donor, which clears one bucket bit per built
// row, by an ordered delete in a scanned one, which leaves the survivors
// in the order endTenure's compaction gives.
func (d *distributor) evict(rows *donorRows, donor, recip *Cluster, ri int, donorLLim, recipULim, donorTarget, recipTarget int64) (moved *tags.IterationChunk, whole, ok bool) {
	scr := d.scratch()
	var row *dotRow // nil for a scanned donor
	var dots []int32
	var best int
	if rows.donor == donor {
		row = rows.row(ri, recip)
		dots, best = row.dots, rows.best(row)
	} else {
		dots = scr.scanDots(donor, recip)
		best = firstMax(dots, donor.sizes, 1, math.MaxInt64)
	}
	// A whole chunk fits iff it keeps the donor at or above its lower
	// limit and the recipient at or below its upper limit. If none fits,
	// move is what a split hands over so both land within limits.
	fits := min(donor.Size-donorLLim, recipULim-recip.Size)
	move := min(donor.Size-donorTarget, recipTarget-recip.Size, recipULim-recip.Size)
	p, whole := pick(dots, best, donor.sizes, fits, move)
	if p < 0 {
		return nil, false, false
	}
	m := donor.Members[p]
	if whole {
		if row != nil {
			rows.remove(p, scr)
			rows.gain(row, recip.Tag, m.Tag)
		} else {
			donor.cut(p, scr)
		}
		recip.add(m)
		return m, true, true
	}
	keep, give := m.Split(m.Count() - move)
	if row != nil {
		rows.split(p, keep, scr)
		rows.gain(rows.row(ri, recip), recip.Tag, give.Tag)
	} else {
		donor.cut(p, scr)
		donor.add(keep)
	}
	recip.add(give)
	return give, false, true
}

// pick is balance's choice of the member to move, given the donor's
// per-position dots with the recipient and best, the first position of
// the largest dot among members with iterations (−1 if there is none).
// A member of size 0, a tombstone or an empty chunk, never moves, so its
// dot is never read. The best member moves whole if it fits; otherwise
// the best member that fits does; if none fits, the best member larger
// than move splits. Among equal dots the first position wins. It returns
// the position, −1 when nothing can move, and whether the member moves
// whole.
func pick(dots []int32, best int, sizes []int64, fits, move int64) (int, bool) {
	if best >= 0 && sizes[best] <= fits {
		return best, true
	}
	if p := firstMax(dots, sizes, 1, fits); p >= 0 {
		return p, true
	}
	if move < 1 {
		return -1, false
	}
	return firstMax(dots, sizes, move+1, math.MaxInt64), false
}

// firstMax returns the first position of the largest dot among the
// members whose size lies in [lo, hi], or −1 if there is none.
func firstMax(dots []int32, sizes []int64, lo, hi int64) int {
	p, top := -1, int32(-1)
	for i, n := range sizes {
		if n >= lo && n <= hi && dots[i] > top {
			p, top = i, dots[i]
		}
	}
	return p
}

// scanDots scores each member of a donor without tombstones against the
// recipient's dense tag, in O(the members' set bits). The dots are held
// in the scratch until the next call.
func (scr *distScratch) scanDots(donor, recip *Cluster) []int32 {
	dots := slices.Grow(scr.dots[:0], len(donor.Members))[:len(donor.Members)]
	for i, m := range donor.Members {
		dots[i] = int32(m.Tag.AndPopCount(recip.Tag))
	}
	scr.dots = dots
	return dots
}

// detach takes member p's tag and size out of the cluster's aggregate and
// returns the member; the caller takes it out of the member list.
func (c *Cluster) detach(p int, scr *distScratch) *tags.IterationChunk {
	c.ensureCounts(scr)
	m := c.Members[p]
	c.counts.Sub(m.Tag)
	c.Size -= c.sizes[p]
	return m
}

// cut removes member p of a cluster without tombstones, keeping the
// survivors in order.
func (c *Cluster) cut(p int, scr *distScratch) {
	c.detach(p, scr)
	c.Members = slices.Delete(c.Members, p, p+1)
	c.sizes = slices.Delete(c.sizes, p, p+1)
}

// donorRows is balance's cache of dot products for the current donor: for
// each recipient chosen during the donor's tenure, a row holding
// popcount(recipient.Tag ∧ member.Tag) for every donor position, and one
// position bitset (a bucket) per positive dot value. A round reads the
// donor's best member as the lowest set bit of the row's highest non-empty
// bucket instead of scoring every member.
//
// The rows stay exact while one cluster stays the donor because:
//   - Only the donor loses members; every other cluster only gains them, so
//     a recipient's tag only gains bits. A move that adds bits B to the
//     recipient raises a member's dot by |B ∧ member.Tag|, which the donor's
//     posting lists (tag bit → donor positions) yield by walking just the
//     lists of B — typically about one bit per move — each raise moving
//     one position up one bucket.
//   - Positions never shift during a tenure. A member that leaves becomes a
//     tombstone: a nil member of size 0 whose dot reads −1 and whose bucket
//     bit is cleared in every row, O(1) a row. The donor's lists are
//     compacted, in order, when the tenure ends.
//   - A split evict leaves the donor's tag unchanged: keep and give share
//     the split chunk's tag, so keep takes a new last position with the
//     chunk's dot and bucket bit in every row, and the chunk's posting
//     nodes are repointed at it. Rows that keep outgrows are dropped and
//     rebuilt at twice the size on their next use.
//   - Only live members with iterations sit in buckets (an empty member
//     reads −1 like a tombstone: neither pick ever moves it), and a
//     bucket's lowest set bit is its first position, so on equal best dots
//     the first position in donor.Members still wins. When none of them
//     has a positive dot, the best is the first of them, which a cursor
//     finds moving forward only: a position dies or is appended, and never
//     comes back.
//
// A donor is indexed from its second round in a row (its first is a scan;
// see evict). Indexing discards every row and rebuilds the postings by
// walking the donor's sparse member tags, in O(their set bits), never
// O(r): no word of a dense member tag is scanned, and list heads are
// generation-stamped, so heads left over from earlier donors read as empty
// lists. All tables are recycled with the run's scratch.
type donorRows struct {
	donor  *Cluster
	leaves int      // positions a row holds: at least one past the donor's
	words  int      // words of a bucket: one bit per position
	live   int      // no member with iterations sits before this position
	used   int      // bytes of the built rows' dots and buckets
	rowAt  []int32  // per cluster index: its row in rows, -1 if none
	rows   []dotRow // the built rows; entries past len keep their storage

	head  []int32  // per tag bit: first posting node, valid iff stamp == gen
	stamp []uint32 // per tag bit: tenure generation that wrote head
	gen   uint32
	node  []int32 // posting node → donor position
	next  []int32 // posting node → next node for the same bit, -1 ends
	bits  []int32 // set-bit scratch of a recipient's dense tag
}

// dotRow is one recipient's dots with the donor's positions.
type dotRow struct {
	dots []int32 // per position; −1 for a tombstone, an empty member or padding
	// buckets holds bucket v ≥ 1, the live members with iterations whose
	// dot is v, in words [(v−1)·words, v·words).
	buckets []uint64
	top     int32 // no bucket above top holds a position
}

// reset starts a balance over k clusters with r-bit tags: no donor yet.
// Stamps past the old length keep values from earlier generations, which
// can never equal a future one, so growing within capacity needs no clear.
func (dr *donorRows) reset(k, r int) {
	dr.donor = nil
	dr.rowAt = grow(dr.rowAt, k)
	if cap(dr.head) < r {
		dr.head = make([]int32, r)
		dr.stamp = make([]uint32, r)
	}
	dr.head, dr.stamp = dr.head[:r], dr.stamp[:r]
}

// setDonor ends the previous tenure and starts donor's: the donor's posting
// lists, and no rows.
func (dr *donorRows) setDonor(donor *Cluster) {
	dr.endTenure()
	dr.donor = donor
	if dr.gen++; dr.gen == 0 {
		clear(dr.stamp[:cap(dr.stamp)])
		dr.gen = 1
	}
	dr.node, dr.next = dr.node[:0], dr.next[:0]
	dr.dropRows()
	for i, m := range donor.Members {
		for _, b := range m.Tag.Bits() {
			if dr.stamp[b] != dr.gen {
				dr.stamp[b], dr.head[b] = dr.gen, -1
			}
			dr.node = append(dr.node, int32(i))
			dr.next = append(dr.next, dr.head[b])
			dr.head[b] = int32(len(dr.node) - 1)
		}
	}
	dr.shape(len(donor.Members) + 1)
	dr.live = 0
}

// shape lays out rows of n positions.
func (dr *donorRows) shape(n int) {
	dr.leaves, dr.words = n, (n+63)/64
}

// endTenure compacts the donor's lists, dropping its tombstones in order.
func (dr *donorRows) endTenure() {
	c := dr.donor
	if c == nil {
		return
	}
	n := 0
	for i, m := range c.Members {
		if m != nil {
			c.Members[n], c.sizes[n] = m, c.sizes[i]
			n++
		}
	}
	clear(c.Members[n:])
	c.Members, c.sizes = c.Members[:n], c.sizes[:n]
	dr.donor = nil
}

// dropRows forgets every built row.
func (dr *donorRows) dropRows() {
	dr.rows, dr.used = dr.rows[:0], 0
	for i := range dr.rowAt {
		dr.rowAt[i] = -1
	}
}

// rowBudget bounds the cached rows of one tenure, in bytes of dots and
// bucket words (4 MiB): a wide node whose huge donor feeds many recipients
// would otherwise hold (k−1)·|donor| dots. A row that would pass it first
// makes the cache forget every row and rebuild each on its next use, which
// is exact either way. A built row grows by one bucket per new top dot.
const rowBudget = 4 << 20

// row returns the row of recipient recip (cluster index ri), building it
// from recip's set bits on its first use in this tenure.
func (dr *donorRows) row(ri int, recip *Cluster) *dotRow {
	if i := dr.rowAt[ri]; i >= 0 {
		return &dr.rows[i]
	}
	if len(dr.rows) > 0 && dr.used+4*dr.leaves > rowBudget {
		dr.dropRows()
	}
	i := len(dr.rows)
	dr.rows = slices.Grow(dr.rows, 1)[:i+1] // keeps a recycled entry's storage
	dr.rowAt[ri] = int32(i)
	row := &dr.rows[i]
	dots := grow(row.dots, dr.leaves)
	sizes := dr.donor.sizes
	for p := range dots {
		dots[p] = -1 // padding, tombstone or empty member
		if p < len(sizes) && sizes[p] > 0 {
			dots[p] = 0
		}
	}
	dr.bits = recip.Tag.AppendSetBits(dr.bits[:0])
	for _, b := range dr.bits {
		if dr.stamp[b] != dr.gen {
			continue
		}
		for e := dr.head[b]; e >= 0; e = dr.next[e] {
			if p := dr.node[e]; dots[p] >= 0 {
				dots[p]++
			}
		}
	}
	row.dots, row.top = dots, max(slices.Max(dots), 0)
	n := int(row.top) * dr.words
	row.buckets = slices.Grow(row.buckets[:0], n)[:n]
	clear(row.buckets)
	for p, v := range dots {
		if v > 0 {
			row.buckets[int(v-1)*dr.words+p>>6] |= 1 << (p & 63)
		}
	}
	dr.used += 4*len(dots) + 8*n
	return row
}

// best returns the first position holding row's largest dot, or −1 when
// no position holds a live member with iterations: the lowest set bit of
// the highest non-empty bucket, or the live cursor when every bucket is
// empty.
func (dr *donorRows) best(row *dotRow) int {
	for ; row.top > 0; row.top-- {
		lo := int(row.top-1) * dr.words
		for w, x := range row.buckets[lo : lo+dr.words] {
			if x != 0 {
				return w<<6 + bits.TrailingZeros64(x)
			}
		}
	}
	sizes := dr.donor.sizes
	for dr.live < len(sizes) && sizes[dr.live] == 0 {
		dr.live++
	}
	if dr.live == len(sizes) {
		return -1
	}
	return dr.live
}

// gain updates a recipient's row for a chunk tag t it is about to absorb:
// only the bits of t the recipient's tag still lacks raise any dot, and
// each raise moves a position up one bucket.
func (dr *donorRows) gain(row *dotRow, recipTag bitvec.Vector, t bitvec.Sparse) {
	for _, b := range t.Bits() {
		if recipTag.Get(int(b)) || dr.stamp[b] != dr.gen {
			continue
		}
		for e := dr.head[b]; e >= 0; e = dr.next[e] {
			p := int(dr.node[e])
			v := row.dots[p]
			if v < 0 {
				continue // tombstone or empty member
			}
			row.dots[p] = v + 1
			w, bit := p>>6, uint64(1)<<(p&63)
			if v > 0 {
				row.buckets[int(v-1)*dr.words+w] &^= bit
			}
			if v == row.top {
				row.top = v + 1
				if n := int(row.top) * dr.words; n > len(row.buckets) {
					row.buckets = slices.Grow(row.buckets, dr.words)[:n]
					clear(row.buckets[n-dr.words:])
					dr.used += 8 * dr.words
				}
			}
			row.buckets[int(v)*dr.words+w] |= bit
		}
	}
}

// remove detaches the donor's member at position p, leaving a tombstone:
// its dot reads −1 and its bucket bit is clear in every row.
func (dr *donorRows) remove(p int, scr *distScratch) {
	c := dr.donor
	c.detach(p, scr)
	c.Members[p], c.sizes[p] = nil, 0
	for i := range dr.rows {
		row := &dr.rows[i]
		if v := row.dots[p]; v > 0 {
			row.buckets[int(v-1)*dr.words+p>>6] &^= 1 << (p & 63)
		}
		row.dots[p] = -1
	}
}

// split replaces the donor's member at position p, which split into keep
// (staying) and a part about to leave, with keep at a new last position
// that takes over the member's dot and bucket bit in every row and its
// posting nodes.
func (dr *donorRows) split(p int, keep *tags.IterationChunk, scr *distScratch) {
	np := len(dr.donor.Members)
	if np == dr.leaves {
		dr.shape(2 * np)
		dr.dropRows()
	}
	for i := range dr.rows {
		row := &dr.rows[i]
		v := row.dots[p]
		row.dots[np] = v
		if v > 0 {
			row.buckets[int(v-1)*dr.words+np>>6] |= 1 << (np & 63)
		}
	}
	for _, b := range keep.Tag.Bits() {
		for e := dr.head[b]; e >= 0; e = dr.next[e] {
			if dr.node[e] == int32(p) {
				dr.node[e] = int32(np)
			}
		}
	}
	dr.remove(p, scr)
	dr.donor.add(keep)
}

// mergePair is a candidate merge in the Stage 1 queue. It is kept to 16
// bytes (indices as int32) because the seed run holds every weight ≥ 1
// pair and its memory traffic dominates the merge stage.
type mergePair struct {
	dot  int64
	a, b int32
}

// popOrder lands pairShards' pairs over r-bit tags in scr.seeds, in the
// merge's pop order (dot desc, a, b), recycles the shards and keeps the
// shard slice's capacity in scr.shards. The shards hold the pairs in
// row-major (a, b) order, so a stable counting sort by dot (dot ≤ r)
// yields that order in O(p + max dot), with no comparisons.
func (scr *distScratch) popOrder(shards []*simScratch, r int) []mergePair {
	if len(scr.dotAt) <= r {
		scr.dotAt = make([]int, r+1)
	}
	at := scr.dotAt
	total := 0
	var top int64
	for _, s := range shards {
		total += len(s.pairs)
		for _, p := range s.pairs {
			at[p.dot]++
			top = max(top, p.dot)
		}
	}
	// at[dot] becomes the first slot of the run of pairs weighing dot.
	off := 0
	for dot := top; dot > 0; dot-- {
		at[dot], off = off, off+at[dot]
	}
	if cap(scr.seeds) < total {
		scr.seeds = make([]mergePair, total)
	}
	seeds := scr.seeds[:total]
	for _, s := range shards {
		for _, p := range s.pairs {
			seeds[at[p.dot]] = p
			at[p.dot]++
		}
		putSimScratch(s)
	}
	clear(at[:top+1])
	clear(shards)
	scr.shards = shards[:0]
	return seeds
}

// dotQueue holds the merge's push-on-increase entries in the merge order
// (dot desc, a, b): per dot, a 4-ary min-heap of the entries' packed
// uint64(a)<<32|b keys, whose order is (a, b)'s, and one occupancy bit per
// dot. A pop compares one integer per heap level, and the top lookup
// scans occupancy words down from the highest one that may be set, never
// empty heaps one at a time: O(max dot/64) words at worst. Pushed dots are
// ≥ 1, since a push pairs clusters that share an added bit. The storage is
// recycled with the run's scratch.
type dotQueue struct {
	heaps [][]uint64 // per dot: its entries' keys, a 4-ary min-heap
	occ   []uint64   // bit dot is set iff heaps[dot] holds an entry
	hi    int        // occupancy words from hi on are zero
}

// push queues the pair (a, b), a < b, at dot.
func (q *dotQueue) push(dot int, a, b int32) {
	if dot >= len(q.heaps) {
		q.heaps = slices.Grow(q.heaps, dot+1-len(q.heaps))[:dot+1]
	}
	if w := dot/64 + 1; w > len(q.occ) {
		q.occ = slices.Grow(q.occ, w-len(q.occ))[:w]
	}
	q.occ[dot/64] |= 1 << (dot % 64)
	q.hi = max(q.hi, dot/64+1)
	key := uint64(a)<<32 | uint64(uint32(b))
	h := append(q.heaps[dot], key)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / heapArity
		if h[p] <= key {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = key
	q.heaps[dot] = h
}

// The heaps are 4-ary: a wider node halves the sift depth with better cache
// locality. Arity cannot change the pop order: the keys within one dot are
// distinct, so the min sequence is unique.
const heapArity = 4

// top returns the highest dot holding an entry, or 0 when the queue is
// empty.
func (q *dotQueue) top() int {
	for ; q.hi > 0; q.hi-- {
		if w := q.occ[q.hi-1]; w != 0 {
			return q.hi*64 - 1 - bits.LeadingZeros64(w)
		}
	}
	return 0
}

// before reports whether the first entry at dot, the queue's top dot,
// precedes seed in the merge order.
func (q *dotQueue) before(dot int, seed mergePair) bool {
	if int64(dot) != seed.dot {
		return int64(dot) > seed.dot
	}
	return q.heaps[dot][0] < uint64(seed.a)<<32|uint64(uint32(seed.b))
}

// pop removes and returns the first entry at dot, which must hold one.
func (q *dotQueue) pop(dot int) (a, b int32) {
	h := q.heaps[dot]
	top, last := h[0], h[len(h)-1]
	h = h[:len(h)-1]
	if len(h) == 0 {
		q.occ[dot/64] &^= 1 << (dot % 64)
	} else {
		i := 0
		for {
			first := heapArity*i + 1
			if first >= len(h) {
				break
			}
			m := first
			for c := first + 1; c < min(first+heapArity, len(h)); c++ {
				if h[c] < h[m] {
					m = c
				}
			}
			if h[m] >= last {
				break
			}
			h[i] = h[m]
			i = m
		}
		h[i] = last
	}
	q.heaps[dot] = h
	return int32(top >> 32), int32(uint32(top))
}

// reset empties the queue and keeps its storage, in O(max dot/64) words
// plus one step per non-empty heap.
func (q *dotQueue) reset() {
	for w := 0; w < q.hi; w++ {
		for m := q.occ[w]; m != 0; m &= m - 1 {
			dot := w*64 + bits.TrailingZeros64(m)
			q.heaps[dot] = q.heaps[dot][:0]
		}
		q.occ[w] = 0
	}
	q.hi = 0
}
