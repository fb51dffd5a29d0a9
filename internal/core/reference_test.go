package core

// Reference implementations of the Figure 5 and Figure 15 loops, kept for
// the equivalence tests only: the dense O(n²) merge engine, the balance
// loop that re-sorts every slot and rescans every donor member with a
// full-width AndPopCount each round, and the schedule that scores every
// candidate with two full-width AndPopCounts. Production runs the sparse
// merge, the cached-row balance and the bit-lookup schedule; the tests
// feed both sides cloned clusters (or the same assignment) and require
// identical output. Every reference dot goes through the member's dense
// Tag.Dense(), never through the sparse helpers it checks.

import (
	"cmp"
	"context"
	"slices"
	"sync"

	"repro/internal/hierarchy"
	"repro/internal/tags"
)

// absorb merges o into c, eagerly concatenating member lists (the
// production merge loop defers that to one pass after merging).
func (c *Cluster) absorb(o *Cluster) {
	c.Members = append(c.Members, o.Members...)
	c.sizes = append(c.sizes, o.sizes...)
	switch {
	case c.counts == nil:
		c.Tag.OrInPlace(o.Tag)
	case o.counts != nil:
		c.counts.AddCounted(o.counts)
	default:
		for _, m := range o.Members {
			c.counts.Add(m.Tag)
		}
	}
	c.Size += o.Size
}

// mergeClustersDense is the original O(n²) reference implementation: the
// heap is seeded with every pair, zero-weight ones included, and every
// active cluster is re-pushed after an absorb. The equivalence property
// tests assert the sparse path reproduces it exactly.
func (d *distributor) mergeClustersDense(clusters []*Cluster, k int) ([]*Cluster, error) {
	n := len(clusters)
	if n <= k {
		return clusters, nil
	}
	active := make([]bool, n)
	version := make([]int32, n)
	for i := range active {
		active[i] = true
	}
	simPhase := d.beginPhase(PhaseSimilarity)
	dots, err := d.pairDots(clusters)
	if err != nil {
		simPhase.end(d)
		return nil, err
	}
	// An absorb pushes one entry per other live cluster, fewer than
	// n(n−1)/2 over the whole merge, so twice the seeds hold every entry
	// ever queued and the heap never regrows.
	h := make(denseHeap, 0, 2*len(dots))
	idx := 0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			h = append(h, densePair{dot: dots[idx], a: int32(i), b: int32(j)})
			idx++
		}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
	simPhase.end(d)

	clusterPhase := d.beginPhase(PhaseCluster)
	defer func() { clusterPhase.end(d) }()
	push := func(a, b int) {
		h.push(densePair{
			dot: int64(clusters[a].Tag.AndPopCount(clusters[b].Tag)),
			a:   int32(a), b: int32(b),
			va: version[a], vb: version[b],
		})
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
		if len(h) == 0 {
			break
		}
		p := h.pop()
		if !active[p.a] || !active[p.b] || version[p.a] != p.va || version[p.b] != p.vb {
			continue
		}
		clusters[p.a].absorb(clusters[p.b])
		active[p.b] = false
		version[p.a]++
		remaining--
		for j := 0; j < n; j++ {
			if j != int(p.a) && active[j] {
				a, b := int(p.a), j
				if b < a {
					a, b = b, a
				}
				push(a, b)
			}
		}
	}
	out := make([]*Cluster, 0, remaining)
	for i, c := range clusters {
		if active[i] {
			out = append(out, c)
		}
	}
	return out, nil
}

// pairDots computes the dot product of every cluster pair (i, j), i < j,
// flattened in row-major order, sharding rows across Options.Workers
// goroutines. Each worker checks ctx between rows.
func (d *distributor) pairDots(clusters []*Cluster) ([]int64, error) {
	n := len(clusters)
	total := n * (n - 1) / 2
	dots := make([]int64, total)
	// rowStart[i] is the flattened offset of pair (i, i+1).
	rowStart := make([]int, n)
	off := 0
	for i := 0; i < n; i++ {
		rowStart[i] = off
		off += n - 1 - i
	}
	workers := d.opts.Workers
	if workers < 1 {
		workers = 1
	}
	if workers > n {
		workers = n
	}
	fill := func(lo, hi int) error {
		for i := lo; i < hi; i++ {
			if d.ctx.Err() != nil {
				return d.ctx.Err()
			}
			off := rowStart[i]
			ti := clusters[i].Tag
			for j := i + 1; j < n; j++ {
				dots[off] = int64(ti.AndPopCount(clusters[j].Tag))
				off++
			}
		}
		return nil
	}
	if workers == 1 {
		return dots, fill(0, n)
	}
	// Static row-block split; later rows are shorter, but the imbalance
	// is bounded and the assignment deterministic.
	errs := make([]error, workers)
	var wg sync.WaitGroup
	step := (n + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo, hi := w*step, (w+1)*step
		if hi > n {
			hi = n
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			errs[w] = fill(lo, hi)
		}(w, lo, hi)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return dots, nil
}

// balanceRef is the original Figure 5 Stage 2 loop: greedy eviction from
// over-full to under-full clusters maximizing the dot product of the
// evicted chunk's tag with the recipient cluster's tag; chunks are split
// when no whole chunk satisfies the limits.
func (d *distributor) balanceRef(clusters []*Cluster, weights []int64) error {
	ph := d.beginPhase(PhaseBalance)
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
	// The rank order is re-sorted every round, but only the donor and
	// recipient change between rounds; the order slice and the firstIter
	// cache (an O(|members|) scan otherwise repeated per comparison) are
	// hoisted and maintained incrementally. scr.order is shared with split's
	// final ranking, which runs only after balance returns.
	if cap(scr.order) < k {
		scr.order = make([]int, k)
	}
	order := scr.order[:k]
	firsts := scr.ints.take(k)
	for i := range order {
		order[i] = i
		firsts[i] = clusters[i].firstIter()
	}
	maxRounds := 4 * (nMembers + k + 4)
	for round := 0; round < maxRounds; round++ {
		if round%ctxCheckInterval == ctxCheckInterval-1 {
			if err := d.ctx.Err(); err != nil {
				return err
			}
		}
		slices.SortStableFunc(order, func(a, b int) int {
			ca, cb := clusters[a], clusters[b]
			if ca.Size != cb.Size {
				return cmp.Compare(cb.Size, ca.Size)
			}
			return cmp.Compare(firsts[a], firsts[b])
		})
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
		recip := clusters[order[recipSlot]]
		moved, whole, ok := d.evictRef(donor, recip, lLim[donorSlot], uLim[recipSlot], target[donorSlot], target[recipSlot])
		if !ok {
			return nil // no progress possible
		}
		// Incremental firsts maintenance: the recipient's first iteration
		// can only be lowered by the arriving chunk; the donor's changes
		// only if the chunk that attained it left whole (a split keeps the
		// leading iterations in the donor).
		k := memberKey(moved)
		di, ri := order[donorSlot], order[recipSlot]
		if whole && k == firsts[di] {
			firsts[di] = donor.firstIter()
		}
		if k < firsts[ri] {
			firsts[ri] = k
		}
	}
	return nil
}

// removeAt detaches member i, shifting the later members down and
// decrementing the counted aggregate tag (production balance tombstones
// instead; see donorRows).
func (c *Cluster) removeAt(i int, scr *distScratch) *tags.IterationChunk {
	c.ensureCounts(scr)
	ic := c.Members[i]
	c.Members = append(c.Members[:i], c.Members[i+1:]...)
	c.Size -= c.sizes[i]
	c.sizes = append(c.sizes[:i], c.sizes[i+1:]...)
	c.counts.Sub(ic.Tag)
	return ic
}

// evictRef moves one (possibly split) chunk from donor to recip, choosing the
// chunk whose tag has maximal dot product with the recipient's tag. It
// returns the chunk that arrived at the recipient and whether it left the
// donor whole (false: the donor kept the leading part of a split); ok is
// false when no move is possible.
func (d *distributor) evictRef(donor, recip *Cluster, donorLLim, recipULim, donorTarget, recipTarget int64) (moved *tags.IterationChunk, whole, ok bool) {
	bestIdx := -1
	var bestDot int64 = -1
	for i, m := range donor.Members {
		cnt := donor.sizes[i]
		if cnt == 0 {
			continue
		}
		if donor.Size-cnt < donorLLim || recip.Size+cnt > recipULim {
			continue
		}
		dot := int64(recip.Tag.AndPopCount(m.Tag.Dense()))
		if dot > bestDot {
			bestDot, bestIdx = dot, i
		}
	}
	if bestIdx >= 0 {
		m := donor.removeAt(bestIdx, d.scratch())
		recip.add(m)
		return m, true, true
	}
	// No whole chunk fits: split the highest-affinity chunk so both
	// clusters land within limits.
	move := donor.Size - donorTarget
	if room := recipTarget - recip.Size; room < move {
		move = room
	}
	if room := recipULim - recip.Size; room < move {
		move = room
	}
	if move < 1 {
		return nil, false, false
	}
	bestIdx = -1
	bestDot = -1
	for i, m := range donor.Members {
		if donor.sizes[i] > move {
			dot := int64(recip.Tag.AndPopCount(m.Tag.Dense()))
			if dot > bestDot {
				bestDot, bestIdx = dot, i
			}
		}
	}
	if bestIdx < 0 {
		return nil, false, false
	}
	m := donor.removeAt(bestIdx, d.scratch())
	keep, give := m.Split(m.Count() - move)
	donor.add(keep)
	recip.add(give)
	return give, false, true
}

// densePair is the dense reference engine's heap entry; it additionally
// carries the endpoint version stamps that invalidate superseded entries
// (the sparse engine replaces stamps with push-on-increase semantics). Its
// fields are 32-bit so a 2,560-cluster reference merge, which queues
// millions of entries, stays under 200 MB.
type densePair struct {
	dot          int64
	a, b, va, vb int32
}

// before is the merge order: dot desc, then a, then b.
func (p densePair) before(q densePair) bool {
	if p.dot != q.dot {
		return p.dot > q.dot
	}
	if p.a != q.a {
		return p.a < q.a
	}
	return p.b < q.b
}

// denseHeap is the dense reference engine's binary heap over densePair in
// the merge order. It is typed rather than a container/heap, which would
// box each of the millions of entries a wide reference merge pushes.
type denseHeap []densePair

func (h *denseHeap) push(p densePair) {
	s := append(*h, p)
	i := len(s) - 1
	for i > 0 && s[i].before(s[(i-1)/2]) {
		s[i], s[(i-1)/2] = s[(i-1)/2], s[i]
		i = (i - 1) / 2
	}
	*h = s
}

func (h *denseHeap) pop() densePair {
	s := *h
	top := s[0]
	s[0] = s[len(s)-1]
	*h = s[:len(s)-1]
	h.down(0)
	return top
}

// down moves entry i down the heap until no child of it precedes it.
func (h denseHeap) down(i int) {
	for {
		m := i
		for _, c := range [2]int{2*i + 1, 2*i + 2} {
			if c < len(h) && h[c].before(h[m]) {
				m = c
			}
		}
		if m == i {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// scheduleRef is the original Figure 15 schedule: every pick scores each
// remaining chunk with dense AndPopCounts against the left neighbour's and
// the client's own last tag, and removes the winner by shifting the slice.
func scheduleRef(ctx context.Context, assign [][]*tags.IterationChunk, tree *hierarchy.Tree, opts ScheduleOptions) ([][]*tags.IterationChunk, error) {
	out := make([][]*tags.IterationChunk, len(assign))
	for _, group := range ioGroups(tree) {
		if err := scheduleGroupRef(ctx, assign, out, group, opts); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// scheduleGroupRef runs the reference Figure 15 inner loop for one I/O
// cache group.
func scheduleGroupRef(ctx context.Context, assign, out [][]*tags.IterationChunk, group []int, opts ScheduleOptions) error {
	n := len(group)
	remaining := make([][]*tags.IterationChunk, n)
	for gi, c := range group {
		remaining[gi] = append([]*tags.IterationChunk(nil), assign[c]...)
	}
	scheduled := make([][]*tags.IterationChunk, n)
	counts := make([]int64, n)
	last := make([]*tags.IterationChunk, n) // last chunk scheduled per client

	pending := func() bool {
		for _, r := range remaining {
			if len(r) > 0 {
				return true
			}
		}
		return false
	}

	// takeBest removes and returns the chunk of remaining[gi] maximizing
	// score; ties resolve to the earliest first-iteration for determinism.
	takeBest := func(gi int, score func(*tags.IterationChunk) float64) *tags.IterationChunk {
		best := -1
		var bestScore float64
		var bestKey int64
		for i, c := range remaining[gi] {
			s := score(c)
			k := chunkKey(c)
			if best < 0 || s > bestScore || (s == bestScore && k < bestKey) {
				best, bestScore, bestKey = i, s, k
			}
		}
		c := remaining[gi][best]
		remaining[gi] = append(remaining[gi][:best], remaining[gi][best+1:]...)
		return c
	}

	put := func(gi int, c *tags.IterationChunk) {
		scheduled[gi] = append(scheduled[gi], c)
		counts[gi] += c.Count()
		last[gi] = c
	}

	dot := func(a, b *tags.IterationChunk) float64 {
		if a == nil || b == nil {
			return 0
		}
		return float64(a.Tag.Dense().AndPopCount(b.Tag.Dense()))
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
			boundIdx := gi - 1
			if gi == 0 {
				boundIdx = n - 1
			}
			first := true
			for len(remaining[gi]) > 0 && (first || counts[gi] < counts[boundIdx]) {
				first = false
				var c *tags.IterationChunk
				switch {
				case gi == 0 && last[gi] == nil:
					// Fewest data chunks first.
					c = takeBest(gi, func(x *tags.IterationChunk) float64 {
						return -float64(x.Tag.Dense().PopCount())
					})
				case gi > 0 && last[gi] == nil:
					left := last[gi-1]
					c = takeBest(gi, func(x *tags.IterationChunk) float64 {
						return opts.Alpha * dot(x, left)
					})
				case gi == 0:
					own := last[gi]
					c = takeBest(gi, func(x *tags.IterationChunk) float64 {
						return opts.Beta * dot(x, own)
					})
				default:
					left, own := last[gi-1], last[gi]
					c = takeBest(gi, func(x *tags.IterationChunk) float64 {
						return opts.Alpha*dot(x, left) + opts.Beta*dot(x, own)
					})
				}
				put(gi, c)
			}
		}
	}
	for gi, c := range group {
		out[c] = scheduled[gi]
	}
	return nil
}
