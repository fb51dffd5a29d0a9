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
	"container/heap"
	"context"
	"fmt"
	"math"
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

// chainFrame is one step of the pre-order walk that materializes deferred
// member lists after the merge loop (see mergeClusters).
type chainFrame struct{ node, child int32 }

// ranked pairs a child index with its leaf weight for split's rank-wise
// cluster-to-child assignment.
type ranked struct {
	idx int
	w   int64
}

// bump is a run-scoped generic bump allocator: take carves a zeroed
// self-capped window, reset rewinds (and re-zeroes the used region, so
// pointer-typed blocks never pin a dead request's objects while parked in
// the pool). Unlike the split-scoped tag arena, bumps rewind only when the
// run releases its scratch — carved windows stay valid for the whole run.
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
// cluster-tag arena plus every per-node slice of the merge loop and the
// run-scoped bump allocators for cluster structs, pointer tables and
// balance bookkeeping. A run acquires it lazily from distScratchPool and
// releases it when the run ends, so repeat requests of the same shape stop
// allocating once the pool is warm. The tag arena is reset at the start of
// every split call — by then the parent level's cluster tags are dead
// (only member lists survive a split; see the escape notes in split) —
// while the bumps rewind only on release, because cluster structs and
// pointer tables of one level are still read while the children recurse.
type distScratch struct {
	tags      bitvec.Arena        // cluster tags, merge newbits, counted OR views
	simRows   [][]int32           // set bits of each cluster, handed to pairShards
	simBits   []int32             // slab of the multi-member clusters' rows
	postings  bitvec.PostingIndex // similarity inverted index, walked by the merge loop
	active    []bool              // per-node liveness in the merge loop
	parent    []int32             // owner union-find
	mark      []int32             // generation stamps for push dedup
	newBits   []int32             // set bits of the absorbed half's new bits
	chainHead []int32             // first-child links of the merge tree
	chainNext []int32             // next-sibling links
	chainTail []int32             // last child, for O(1) appends
	frames    []chainFrame        // pre-order walk stack
	byWeight  []ranked            // split's child-rank table

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
	pushes   []mergePair          // merge-heap backing (push-on-increase entries)
}

var distScratchPool = sync.Pool{New: func() any { return new(distScratch) }}

// scratch lazily acquires the run's recycled scratch.
func (d *distributor) scratch() *distScratch {
	if d.scr == nil {
		d.scr = distScratchPool.Get().(*distScratch)
	}
	return d.scr
}

// release returns the scratch to the pool. The arena and bump resets
// invalidate everything carved from them, so release must come after the
// last use of any cluster of the run (the returned assignment only carries
// member chunk lists, never clusters or their tags, so running it on exit
// is safe).
func (d *distributor) release() {
	if d.scr != nil {
		d.scr.tags.Reset()
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
// run's recycled storage. The struct comes from the run-scoped bump (it can
// outlive the call that made it, but never the run); the tag from the
// split-scoped arena.
func (d *distributor) newArenaCluster() *Cluster {
	scr := d.scratch()
	c := &scr.clusters.take(1)[0]
	c.Tag = scr.tags.Vec(d.r)
	return c
}

// grow32 resizes s to n without zeroing retained storage; callers overwrite
// every entry before reading.
func grow32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

func growBool(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
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
// view from the split-scoped tag arena is safe: counts are only used by
// balance, which finishes before the next split resets it).
func (c *Cluster) ensureCounts(scr *distScratch) {
	if c.counts != nil {
		return
	}
	n := c.Tag.Len()
	ct := &scr.counted.take(1)[0]
	bitvec.InitCounted(ct, scr.tags.Vec(n), scr.counts32.take(n))
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

// Distribute runs the Figure 5 algorithm: it assigns the given iteration
// chunks to the client nodes of the hierarchy tree and returns one chunk
// list per client (indexed by client number). Chunks may be split by load
// balancing; the returned chunks partition the input iterations exactly.
func Distribute(chunks []*tags.IterationChunk, tree *hierarchy.Tree, opts Options) ([][]*tags.IterationChunk, error) {
	return DistributeCtx(context.Background(), chunks, tree, opts)
}

// DistributeCtx is Distribute with cooperative cancellation: the sparse
// similarity pass, the merge loop and the balancing rounds check ctx
// periodically and return ctx.Err() when it is canceled. When subtrees run
// in parallel (see Options.Workers), it returns only after every worker
// has exited, and a panic on a worker is re-raised on the caller.
func DistributeCtx(ctx context.Context, chunks []*tags.IterationChunk, tree *hierarchy.Tree, opts Options) ([][]*tags.IterationChunk, error) {
	if tree == nil {
		return nil, fmt.Errorf("core: nil tree")
	}
	if err := tree.Validate(); err != nil {
		return nil, err
	}
	if opts.BalanceThreshold < 0 || opts.BalanceThreshold > 1 {
		return nil, fmt.Errorf("core: balance threshold %v outside [0,1]", opts.BalanceThreshold)
	}
	r := 0
	if len(chunks) > 0 {
		r = chunks[0].Tag.Len()
		for _, c := range chunks {
			if c.Tag.Len() != r {
				return nil, fmt.Errorf("core: inconsistent tag widths %d vs %d", c.Tag.Len(), r)
			}
		}
	}
	d := &distributor{ctx: ctx, opts: opts, tree: tree, r: r}
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
	// Stage 0: one singleton cluster per chunk. The cluster structs, tags,
	// member lists and size caches are carved from four slab allocations
	// instead of 4·n; the self-capped windows force copy-on-grow, so later
	// appends never step on a neighbor.
	//
	// Escape notes: memSlab windows CAN escape the run — a leaf assignment
	// hands out c.Members, which aliases memSlab for clusters that never
	// merged or grew — so the member and size slabs stay real allocations.
	// Cluster tags never escape (the output carries iteration-chunk member
	// lists only), and by the time this level's children recurse the parent
	// tags are no longer read, so the tag storage comes from the recycled
	// arena, reset here at the start of every split.
	n := len(members)
	scr := d.scratch()
	scr.tags.Reset()
	slab := scr.clusters.take(n)
	memSlab := make([]*tags.IterationChunk, n)
	sizeSlab := scr.ints.take(n)
	clusters := scr.ptrs.take(n)
	for i, m := range members {
		// Each singleton's tag is r bits, so a canceled job stops here
		// rather than carving n·r bits first (gigabytes at n, r ≈ 10^5).
		if i%ctxCheckInterval == ctxCheckInterval-1 {
			if err := d.ctx.Err(); err != nil {
				return nil, err
			}
		}
		c := &slab[i]
		c.Tag = scr.tags.Vec(d.r)
		c.Members = memSlab[i : i : i+1]
		c.sizes = sizeSlab[i : i : i+1]
		c.add(m)
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
// than needed, merge the pair with the maximal tag dot product.
//
// The queue is seeded by the sparse similarity engine (similarity.go): only
// pairs with ω ≥ 1 are generated. That is plan-identical to the dense
// seeding because a zero-weight pair never outranks a positive one, and
// once the maximum weight reaches 0 every remaining pair is 0 — merging two
// zero-overlap clusters cannot create overlap — so the dense heap's tail is
// a fixed lexicographic drain reproduced by the loop after the queue runs
// dry.
//
// The queue is maintained with push-on-increase semantics: cluster tags
// only gain bits, so a live pair's weight is nondecreasing and an entry can
// only ever underestimate it. After an absorb, a fresh entry is pushed only
// for the pairs whose weight actually changed: the live clusters whose tags
// overlap the bits the absorbed half newly contributed (newbits = Λb ∖ Λa).
// Every live pair therefore always has one entry carrying its true weight,
// plus possibly stale underestimates; the queue maximum over entries with
// both endpoints alive is always a true-weight entry of the true maximum
// pair (an underestimate of the same pair ranks below its own true entry),
// so the pop order — and the plan — is identical to the dense reference,
// while merges that add no new bits push nothing. Entries whose endpoints
// died are discarded on pop.
//
// The queue is two sorted sources under one total order (dot desc, a, b),
// and each pop takes the first of their heads. The seeds never change, so
// they form a run already in pop order (see popOrder), read by a cursor:
// a stale seed costs one step, not a sift. Only the pushed entries, far
// fewer, live in a 4-ary heap. Every entry is distinct under the total
// order, so the pop sequence is unique: neither the split into two sources
// nor the order in which one merge's entries are pushed can change a pop.
//
// Finding the pairs to push costs what the merge changed. A live cluster's
// tag is the OR of its original members' tags, so live j gains weight with
// a exactly when one of j's original members has a bit in newbits. The
// similarity index lists, per bit, the original members holding it;
// walking the lists of newbits' (typically one or two) bits and resolving
// each entry through the owner union-find yields exactly that set.
func (d *distributor) mergeClusters(clusters []*Cluster, k int) ([]*Cluster, error) {
	n := len(clusters)
	if n <= k {
		return clusters, nil
	}
	scr := d.scratch()
	active := growBool(scr.active, n)
	for i := range active {
		active[i] = true
	}
	simPhase := d.beginPhase("similarity")
	// A singleton's tag is its member's, so a split's Stage 0 hands the
	// member's set bits over as they are; only the multi-member clusters
	// RebalanceClusters starts from list their dense tag's bits, in a slab.
	if cap(scr.simRows) < n {
		scr.simRows = make([][]int32, n)
	}
	rows := scr.simRows[:n]
	slab := scr.simBits[:0]
	for i, c := range clusters {
		if len(c.Members) == 1 {
			rows[i] = c.Members[0].Tag.Bits()
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
	h := pairHeap{items: scr.pushes[:0]}

	// owner union-find: posting lists hold original cluster indices; find
	// resolves them to the absorbing cluster they now belong to.
	parent := grow32(scr.parent, n)
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
	mark := grow32(scr.mark, n) // generation stamps for push dedup
	clear(mark)                 // stale stamps from a previous run could collide
	var gen int32
	newbits := scr.tags.Vec(d.r) // bits the absorbed half newly contributes
	bits := scr.newBits[:0]

	// Member lists are NOT concatenated during the merge loop: an eager
	// absorb re-copies the growing list on every merge (two small
	// allocations each). Instead each absorb is recorded as a child link in
	// first-child/next-sibling chains, and the surviving clusters'
	// member/size lists are materialized afterwards in one exact-size
	// allocation per cluster, walking the merge tree in pre-order — the
	// identical order eager concatenation would have produced.
	chainHead := grow32(scr.chainHead, n)
	chainNext := grow32(scr.chainNext, n)
	chainTail := grow32(scr.chainTail, n)
	for i := range chainHead {
		chainHead[i], chainNext[i], chainTail[i] = -1, -1, -1
	}
	// Store the possibly regrown slices back so the capacity is kept.
	scr.active, scr.parent, scr.mark = active, parent, mark
	scr.chainHead, scr.chainNext, scr.chainTail = chainHead, chainNext, chainTail
	link := func(a, b int32) {
		if chainHead[a] < 0 {
			chainHead[a] = b
		} else {
			chainNext[chainTail[a]] = b
		}
		chainTail[a] = b
	}
	push := func(a, b int32) {
		if b < a {
			a, b = b, a
		}
		h.push(mergePair{dot: int64(clusters[a].Tag.AndPopCount(clusters[b].Tag)), a: a, b: b})
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
		if len(seeds) == 0 && len(h.items) == 0 {
			break // sparse graph exhausted: every remaining pair weighs 0
		}
		var p mergePair
		if len(seeds) == 0 || len(h.items) > 0 && h.less(h.items[0], seeds[0]) {
			p = h.pop()
		} else {
			p, seeds = seeds[0], seeds[1:]
		}
		if !active[p.a] || !active[p.b] {
			continue // stale: an endpoint was absorbed, or an old underestimate
		}
		hasNew := newbits.AndNotInto(clusters[p.b].Tag, clusters[p.a].Tag)
		clusters[p.a].Tag.OrInPlace(clusters[p.b].Tag)
		clusters[p.a].Size += clusters[p.b].Size
		link(p.a, p.b)
		active[p.b] = false
		parent[p.b] = p.a
		remaining--
		// If the absorbed tag was a subset (no new bits), every existing
		// entry keeps its true weight and nothing is pushed.
		if !hasNew {
			continue
		}
		gen++
		bits = newbits.AppendSetBits(bits[:0])
		for _, b := range bits {
			for _, i := range scr.postings.List(b) {
				j := find(i)
				if j == p.a || mark[j] == gen {
					continue
				}
				mark[j] = gen
				push(p.a, j)
			}
		}
	}
	scr.newBits = bits
	// Lazy zero-weight drain: the dense heap would now pop (0, a, b)
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
			clusters[first].Tag.OrInPlace(clusters[i].Tag)
			clusters[first].Size += clusters[i].Size
			link(int32(first), int32(i))
			active[i] = false
			remaining--
		}
	}
	scr.pushes = h.items[:0] // keep any growth from push-on-increase entries
	// Materialize the deferred member lists: pre-order over each surviving
	// cluster's merge tree, children in absorb order.
	frames := scr.frames[:0]
	defer func() { scr.frames = frames }()
	out := scr.ptrs.take(remaining)[:0]
	for i, c := range clusters {
		if !active[i] {
			continue
		}
		if chainHead[i] >= 0 {
			total := len(c.Members)
			frames = append(frames[:0], chainFrame{int32(i), chainHead[i]})
			for len(frames) > 0 {
				f := &frames[len(frames)-1]
				ch := f.child
				if ch < 0 {
					frames = frames[:len(frames)-1]
					continue
				}
				f.child = chainNext[ch]
				total += len(clusters[ch].Members)
				frames = append(frames, chainFrame{ch, chainHead[ch]})
			}
			// memberPad slots of headroom absorb the typical few chunks the
			// balance stage evicts into this cluster, so a recipient's first
			// adds don't immediately regrow an exact-capacity list.
			const memberPad = 4
			members := make([]*tags.IterationChunk, 0, total+memberPad)
			sizes := make([]int64, 0, total+memberPad)
			members = append(members, c.Members...)
			sizes = append(sizes, c.sizes...)
			frames = append(frames[:0], chainFrame{int32(i), chainHead[i]})
			for len(frames) > 0 {
				f := &frames[len(frames)-1]
				ch := f.child
				if ch < 0 {
					frames = frames[:len(frames)-1]
					continue
				}
				f.child = chainNext[ch]
				members = append(members, clusters[ch].Members...)
				sizes = append(sizes, clusters[ch].sizes...)
				frames = append(frames, chainFrame{ch, chainHead[ch]})
			}
			c.Members = members
			c.sizes = sizes
		}
		out = append(out, c)
	}
	return out, nil
}

// splitEntry keys a cluster for splitUpTo's max-heap: largest size first,
// then earliest first iteration, then lowest position — the same total
// order the previous per-iteration rescan used, so split choices (and the
// final cluster list order) are unchanged.
type splitEntry struct {
	size  int64
	first int64
	pos   int
}

type splitHeap []splitEntry

func (h splitHeap) Len() int { return len(h) }
func (h splitHeap) Less(i, j int) bool {
	if h[i].size != h[j].size {
		return h[i].size > h[j].size
	}
	if h[i].first != h[j].first {
		return h[i].first < h[j].first
	}
	return h[i].pos < h[j].pos
}
func (h splitHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *splitHeap) Push(x any)   { *h = append(*h, x.(splitEntry)) }
func (h *splitHeap) Pop() any     { old := *h; x := old[len(old)-1]; *h = old[:len(old)-1]; return x }

// splitUpTo grows the cluster list to k clusters by repeatedly breaking the
// largest cluster in two (Figure 5's |csi| < NumClusters case). A max-heap
// tracks the largest cluster so each split is O(log n) instead of a full
// rescan of the cluster list.
func (d *distributor) splitUpTo(clusters []*Cluster, k int) []*Cluster {
	if len(clusters) >= k {
		return clusters
	}
	if len(clusters) == 0 {
		for len(clusters) < k {
			clusters = append(clusters, d.newArenaCluster())
		}
		return clusters
	}
	h := make(splitHeap, 0, k)
	for i, c := range clusters {
		h = append(h, splitEntry{size: c.Size, first: c.firstIter(), pos: i})
	}
	heap.Init(&h)
	for len(clusters) < k {
		top := h[0]
		a, b := d.breakCluster(clusters[top.pos])
		clusters[top.pos] = a
		clusters = append(clusters, b)
		h[0] = splitEntry{size: a.Size, first: a.firstIter(), pos: top.pos}
		heap.Fix(&h, 0)
		heap.Push(&h, splitEntry{size: b.Size, first: b.firstIter(), pos: len(clusters) - 1})
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
// max tree of dots (see donorRows). Most donors of a repair serve one
// round, and their index would never be read twice, while a cold split's
// one long tenure pays a single extra scan.
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
	// repeated per comparison) are maintained incrementally. scr.order is
	// shared with split's final ranking, which runs only after balance
	// returns.
	if cap(scr.order) < k {
		scr.order = make([]int, k)
	}
	order := scr.order[:k]
	firsts := scr.ints.take(k)
	for i := range order {
		order[i] = i
		firsts[i] = clusters[i].firstIter()
	}
	rankCmp := func(a, b int) int {
		ca, cb := clusters[a], clusters[b]
		if ca.Size != cb.Size {
			return cmp.Compare(cb.Size, ca.Size)
		}
		return cmp.Compare(firsts[a], firsts[b])
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
		// can only be lowered by the arriving chunk; the donor's changes
		// only if the chunk that attained it left whole (a split keeps the
		// leading iterations in the donor).
		key := memberKey(moved)
		if whole && key == firsts[di] {
			firsts[di] = donor.firstIter()
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
// The dots come from the recipient's max tree when rows holds donor's
// tenure, and otherwise from a scan of the donor's members, O(their set
// bits) with no table and no tree. The two differ only in how a member
// leaves: as a tombstone in an indexed donor, by an ordered delete in a
// scanned one, which leaves the survivors in the order endTenure's
// compaction gives.
func (d *distributor) evict(rows *donorRows, donor, recip *Cluster, ri int, donorLLim, recipULim, donorTarget, recipTarget int64) (moved *tags.IterationChunk, whole, ok bool) {
	scr := d.scratch()
	indexed := rows.donor == donor
	var dots []int32
	var best int
	if indexed {
		dots = rows.tree(ri, recip)
		best = rows.best(dots)
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
		if indexed {
			rows.remove(p, scr)
			rows.gain(dots, recip.Tag, m.Tag)
		} else {
			donor.cut(p, scr)
		}
		recip.add(m)
		return m, true, true
	}
	keep, give := m.Split(m.Count() - move)
	if indexed {
		rows.split(p, keep, scr)
		rows.gain(rows.tree(ri, recip), recip.Tag, give.Tag)
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
// each recipient chosen during the donor's tenure, a max tree whose leaves
// hold popcount(recipient.Tag ∧ member.Tag) for every donor position. A
// round reads the donor's best member off the tree's root in O(log |donor|)
// instead of scoring every member. The trees are treeFan-way, so a tree is
// barely larger than its leaves.
//
// The trees stay exact while one cluster stays the donor because:
//   - Only the donor loses members; every other cluster only gains them, so
//     a recipient's tag only gains bits. A move that adds bits B to the
//     recipient raises a member's dot by |B ∧ member.Tag|, which the donor's
//     posting lists (tag bit → donor positions) yield by walking just the
//     lists of B — typically about one bit per move — each raise a point
//     update of the leaf and its ancestors.
//   - Positions never shift during a tenure. A member that leaves becomes a
//     tombstone: a nil member of size 0 whose leaf is −1 in every tree. The
//     donor's lists are compacted, in order, when the tenure ends.
//   - A split evict leaves the donor's tag unchanged: keep and give share
//     the split chunk's tag, so keep takes a new last position with the
//     chunk's dot in every tree, and the chunk's posting nodes are
//     repointed at it. Trees that keep outgrows are dropped and rebuilt at
//     twice the size on their next use.
//   - An inner node holds the largest of its children, and the descent
//     takes the first child holding the root's value, so on equal best dots
//     the first position in donor.Members still wins. Empty members read −1
//     like tombstones: neither pick ever moves them.
//
// A donor is indexed from its second round in a row (its first is a scan;
// see evict). Indexing discards every tree and rebuilds the postings by
// walking the donor's sparse member tags, in O(their set bits), never
// O(r): no word of a dense member tag is scanned, and list heads are
// generation-stamped, so heads left over from earlier donors read as empty
// lists. All tables are recycled with the run's scratch.
type donorRows struct {
	donor  *Cluster
	leaves int     // positions a tree holds: at least one past the donor's
	levels []int   // offset of each tree level, leaves (0) first, the root last
	span   int     // entries per tree; the root is the last
	rowAt  []int32 // per cluster index: offset of its tree in rows, -1 if none
	rows   []int32 // the built trees, span entries each

	head  []int32  // per tag bit: first posting node, valid iff stamp == gen
	stamp []uint32 // per tag bit: tenure generation that wrote head
	gen   uint32
	node  []int32 // posting node → donor position
	next  []int32 // posting node → next node for the same bit, -1 ends
	bits  []int32 // set-bit scratch of a recipient's dense tag
}

// reset starts a balance over k clusters with r-bit tags: no donor yet.
// Stamps past the old length keep values from earlier generations, which
// can never equal a future one, so growing within capacity needs no clear.
func (dr *donorRows) reset(k, r int) {
	dr.donor = nil
	dr.rowAt = grow32(dr.rowAt, k)
	if cap(dr.head) < r {
		dr.head = make([]int32, r)
		dr.stamp = make([]uint32, r)
	}
	dr.head, dr.stamp = dr.head[:r], dr.stamp[:r]
}

// setDonor ends the previous tenure and starts donor's: the donor's posting
// lists, and no trees.
func (dr *donorRows) setDonor(donor *Cluster) {
	dr.endTenure()
	dr.donor = donor
	if dr.gen++; dr.gen == 0 {
		clear(dr.stamp[:cap(dr.stamp)])
		dr.gen = 1
	}
	dr.node, dr.next = dr.node[:0], dr.next[:0]
	dr.dropTrees()
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
}

// treeFan is the trees' fan-out: an inner node holds the largest of up to
// treeFan entries of the level below, one 64-byte cache line of them.
const treeFan = 16

// shape lays out trees of n leaves: level 0 is the leaves, by position,
// and each level above has one node per treeFan entries below, up to a
// single root.
func (dr *donorRows) shape(n int) {
	dr.leaves = n
	dr.levels = append(dr.levels[:0], 0)
	for off := n; n > 1; off += n {
		n = (n + treeFan - 1) / treeFan
		dr.levels = append(dr.levels, off)
	}
	dr.span = dr.levels[len(dr.levels)-1] + 1
}

// level returns level l of tree t.
func (dr *donorRows) level(t []int32, l int) []int32 {
	if l+1 < len(dr.levels) {
		return t[dr.levels[l]:dr.levels[l+1]]
	}
	return t[dr.levels[l]:dr.span]
}

// children returns the entries of level l below node j of level l+1.
func (dr *donorRows) children(t []int32, l, j int) []int32 {
	below := dr.level(t, l)
	return below[j*treeFan : min(j*treeFan+treeFan, len(below))]
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

// dropTrees forgets every built tree.
func (dr *donorRows) dropTrees() {
	dr.rows = dr.rows[:0]
	for i := range dr.rowAt {
		dr.rowAt[i] = -1
	}
}

// rowBudget bounds the cached trees of one tenure, in entries (4 MiB): a
// wide node whose huge donor feeds many recipients would otherwise hold
// (k−1)·span dots and inner nodes. Past it the cache forgets every tree
// and rebuilds each on its next use, which is exact either way.
const rowBudget = 1 << 20

// tree returns the max tree of recipient recip (cluster index ri),
// building it from recip's set bits on its first use in this tenure.
func (dr *donorRows) tree(ri int, recip *Cluster) []int32 {
	n := dr.span
	off := int(dr.rowAt[ri])
	if off < 0 {
		if len(dr.rows) > 0 && len(dr.rows)+n > rowBudget {
			dr.dropTrees()
		}
		off = len(dr.rows)
		dr.rows = slices.Grow(dr.rows, n)[:off+n]
		dr.rowAt[ri] = int32(off)
		t := dr.rows[off : off+n]
		sizes := dr.donor.sizes
		for p := range dr.leaves {
			t[p] = -1 // padding, tombstone or empty member
			if p < len(sizes) && sizes[p] > 0 {
				t[p] = 0
			}
		}
		dr.bits = recip.Tag.AppendSetBits(dr.bits[:0])
		for _, b := range dr.bits {
			dr.count(t, b, false)
		}
		for l := 1; l < len(dr.levels); l++ {
			nodes := dr.level(t, l)
			for j := range nodes {
				nodes[j] = slices.Max(dr.children(t, l-1, j))
			}
		}
	}
	return dr.rows[off : off+n]
}

// count raises by one the leaf of every live donor member whose tag has
// bit b; with fix it also updates each raised leaf's ancestors.
func (dr *donorRows) count(t []int32, b int32, fix bool) {
	if dr.stamp[b] != dr.gen {
		return
	}
	for e := dr.head[b]; e >= 0; e = dr.next[e] {
		p := int(dr.node[e])
		switch v := t[p]; {
		case v < 0: // tombstone or empty member
		case fix:
			dr.set(t, p, v+1)
		default:
			t[p] = v + 1
		}
	}
}

// set writes position p's leaf of tree t and updates its ancestors, up to
// the first whose maximum does not change. A raised entry lifts its parent
// without a look at the siblings; only a lowered maximum rescans them.
func (dr *donorRows) set(t []int32, p int, v int32) {
	old := t[p]
	t[p] = v
	for l, j := 1, p/treeFan; l < len(dr.levels); l, j = l+1, j/treeFan {
		node := &dr.level(t, l)[j]
		cur := *node
		switch {
		case v > cur:
		case v < old && old == cur:
			if v = slices.Max(dr.children(t, l-1, j)); v == cur {
				return
			}
		default:
			return
		}
		*node, old = v, cur
	}
}

// best returns the first position holding tree t's largest dot, or −1 when
// no position holds a live, non-empty member: from the root down, the
// first child holding the root's value.
func (dr *donorRows) best(t []int32) int {
	top := t[dr.span-1]
	if top < 0 {
		return -1
	}
	j := 0
	for l := len(dr.levels) - 2; l >= 0; l-- {
		j = j*treeFan + slices.Index(dr.children(t, l, j), top)
	}
	return j
}

// gain updates a recipient's tree for a chunk tag t it is about to absorb:
// only the bits of t the recipient's tag still lacks raise any dot.
func (dr *donorRows) gain(tree []int32, recipTag bitvec.Vector, t bitvec.Sparse) {
	for _, b := range t.Bits() {
		if !recipTag.Get(int(b)) {
			dr.count(tree, b, true)
		}
	}
}

// remove detaches the donor's member at position p, leaving a tombstone
// that reads −1 in every tree.
func (dr *donorRows) remove(p int, scr *distScratch) {
	c := dr.donor
	c.detach(p, scr)
	c.Members[p], c.sizes[p] = nil, 0
	for off := 0; off < len(dr.rows); off += dr.span {
		dr.set(dr.rows[off:off+dr.span], p, -1)
	}
}

// split replaces the donor's member at position p, which split into keep
// (staying) and a part about to leave, with keep at a new last position
// that takes over the member's dot in every tree and its posting nodes.
func (dr *donorRows) split(p int, keep *tags.IterationChunk, scr *distScratch) {
	np := len(dr.donor.Members)
	if np == dr.leaves {
		dr.shape(2 * np)
		dr.dropTrees()
	}
	for off := 0; off < len(dr.rows); off += dr.span {
		t := dr.rows[off : off+dr.span]
		dr.set(t, np, t[p])
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

// pairHeap is a max-heap on (dot, then smaller indices first) for
// deterministic merging.
type pairHeap struct{ items []mergePair }

func (h *pairHeap) less(x, y mergePair) bool {
	if x.dot != y.dot {
		return x.dot > y.dot
	}
	if x.a != y.a {
		return x.a < y.a
	}
	return x.b < y.b
}

// The heap is 4-ary: a wider node halves the sift depth with better cache
// locality. Arity cannot change the pop order — every entry is distinct
// under the total (dot, a, b) order (re-pushes happen only on a strict
// weight increase), so the max sequence is unique.
const heapArity = 4

func (h *pairHeap) push(p mergePair) {
	h.items = append(h.items, p)
	i := len(h.items) - 1
	for i > 0 {
		parent := (i - 1) / heapArity
		if !h.less(h.items[i], h.items[parent]) {
			break
		}
		h.items[i], h.items[parent] = h.items[parent], h.items[i]
		i = parent
	}
}

func (h *pairHeap) siftDown(i int) {
	n := len(h.items)
	for {
		first := heapArity*i + 1
		if first >= n {
			break
		}
		last := first + heapArity
		if last > n {
			last = n
		}
		m := i
		for c := first; c < last; c++ {
			if h.less(h.items[c], h.items[m]) {
				m = c
			}
		}
		if m == i {
			break
		}
		h.items[i], h.items[m] = h.items[m], h.items[i]
		i = m
	}
}

// pop removes and returns the top entry of a non-empty heap.
func (h *pairHeap) pop() mergePair {
	top := h.items[0]
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	h.items = h.items[:last]
	h.siftDown(0)
	return top
}
