package core

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"

	"repro/internal/hierarchy"
	"repro/internal/tags"
)

// RebalanceClusters adapts an existing per-client clustering — the
// post-balance artifact of a previous DistributeCtx run — to a (possibly
// drifted) hierarchy tree, without re-running tag computation or the
// similarity/merge stages. It is the re-entry point of incremental
// re-planning: the caller decodes a cached clustering and this function
// makes it valid for the new topology.
//
// Client counts may differ: surplus clusters are agglomeratively merged by
// maximal tag dot product (the same Stage 1 machinery as a full run) and
// missing clusters are created by splitting the largest ones. Cluster i of
// the result stays on client i wherever counts match, preserving the
// locality of the prior assignment.
//
// Balancing runs under a relaxed threshold: a full hierarchical run bounds
// each level's imbalance by BalanceThreshold, so a client's final share can
// legitimately deviate by up to (1+t)^h − 1 (h = tree height) plus the
// per-level minimum slack of one iteration. Re-balancing a zero-drift
// clustering against the flat per-client target with the raw threshold
// would "correct" that legitimate deviation and change the plan; the
// relaxed limits make zero-drift repair a strict no-op, which is what the
// byte-identical repair contract requires. The input lists are never
// modified.
func RebalanceClusters(ctx context.Context, assign [][]*tags.IterationChunk, tree *hierarchy.Tree, opts Options) ([][]*tags.IterationChunk, error) {
	d, err := newDistributor(ctx, tree, opts, assign...)
	if err != nil {
		return nil, err
	}
	defer d.release()
	h := max(tree.Height(), 1)
	d.opts.BalanceThreshold = min(math.Pow(1+opts.BalanceThreshold, float64(h))-1, 1)
	d.opts.slackExtra = int64(2*h + 2)

	// Cluster tags come from the run's recycled tag words: the returned
	// assignment carries only the member chunk lists, so no tag outlives
	// the release. Member lists start as exact-capacity copies — the input
	// lists are contractually never modified, and balance may append.
	clusters := make([]*Cluster, len(assign))
	for i, cl := range assign {
		c := d.newArenaCluster()
		c.Members = make([]*tags.IterationChunk, 0, len(cl))
		c.sizes = make([]int64, 0, len(cl))
		for _, m := range cl {
			c.add(m)
		}
		clusters[i] = c
	}
	k := tree.NumClients()
	if len(clusters) > k {
		if clusters, err = d.mergeClusters(clusters, k); err != nil {
			return nil, err
		}
	}
	clusters = d.splitUpTo(clusters, k)
	// Per-client weights are uniform: every leaf is one client, so the
	// flat target is total/k regardless of the tree's internal shape.
	weights := make([]int64, k)
	for i := range weights {
		weights[i] = 1
	}
	if err := d.balance(clusters, weights); err != nil {
		return nil, err
	}
	out := make([][]*tags.IterationChunk, k)
	for i, c := range clusters {
		out[i] = c.Members
	}
	return out, nil
}

// RescheduleStages re-runs the pipeline's scheduling stage on a per-client
// clustering against a decoded hierarchy: the Figure 15 reuse schedule when
// sched is true, otherwise the deterministic lexicographic order of first
// iteration that the plain inter-processor scheme uses. The Figure 15
// schedule runs its I/O groups on opts.Workers as ScheduleCtx does, so
// keyed ScheduleOptions{Alpha, Beta} schedule serially. The input lists are
// never modified; the result holds fresh slices in execution order.
func RescheduleStages(ctx context.Context, assign [][]*tags.IterationChunk, tree *hierarchy.Tree, opts ScheduleOptions, sched bool) ([][]*tags.IterationChunk, error) {
	if sched {
		return ScheduleCtx(ctx, assign, tree, opts)
	}
	if tree != nil && len(assign) != tree.NumClients() {
		return nil, fmt.Errorf("core: assignment for %d clients on a %d-client tree",
			len(assign), tree.NumClients())
	}
	out := make([][]*tags.IterationChunk, len(assign))
	for i, cl := range assign {
		s := append([]*tags.IterationChunk(nil), cl...)
		slices.SortStableFunc(s, func(a, b *tags.IterationChunk) int { return cmp.Compare(chunkKey(a), chunkKey(b)) })
		out[i] = s
	}
	return out, nil
}
