package pipeline

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/iosim"
	"repro/internal/tags"
)

// State is the explicit inter-stage artifact of a resumable pipeline run:
// the post-balance, pre-schedule per-client clustering together with the
// parameters needed to re-enter the pipeline at the balance stage against a
// new hierarchy. The expensive prefix — tag computation, dependence
// analysis, similarity weighting and hierarchical clustering — is carried
// as its outcome, not re-run.
//
// A State is immutable once built: Resume never modifies the clustering
// (RebalanceClusters and RescheduleStages work on fresh slices, and chunk
// splits allocate new chunks), so one cached State can seed any number of
// concurrent repairs.
type State struct {
	// Scheme is the mapping strategy of the originating run (one of the
	// inter schemes; original/intra results are not resumable).
	Scheme Scheme
	// TagWidth is the bit width r of every chunk tag (the data-chunk count
	// of the originating workload). Zero only when the clustering holds no
	// chunks at all.
	TagWidth int
	// NumChunks is the originating run's Result.NumChunks; it flows into
	// the repaired result so plan metadata matches the full compute.
	NumChunks int
	// Clustering holds the balanced chunk assignment, indexed by client.
	Clustering [][]*tags.IterationChunk
}

// State returns the resumable mid-pipeline artifact of this result, or nil
// when the result cannot seed a Resume (non-inter scheme, or a
// dependence-aware mode whose repair would need tags/chunks stage
// artifacts that the clustering alone does not carry).
func (r *Result) State() *State {
	if !r.resumable || r.Clustering == nil {
		return nil
	}
	width := 0
	for _, cl := range r.Clustering {
		if len(cl) > 0 {
			width = cl[0].Tag.Len()
			break
		}
	}
	return &State{
		Scheme:     r.Scheme,
		TagWidth:   width,
		NumChunks:  r.NumChunks,
		Clustering: r.Clustering,
	}
}

// ReusedStages lists the pipeline stages whose artifacts Resume reuses
// from a cached State instead of re-running them, in canonical order. This
// is the reused_stages ledger the serving layer attaches to incrementally
// re-planned responses.
func ReusedStages() []string {
	return []string{StageTags, StageChunks, StageSimilarity, StageCluster}
}

// Resume re-enters the pipeline mid-way: starting from the cached State's
// clustering it runs only the balance, schedule and encode stages against
// cfg.Tree — which may differ from the tree the State was computed for
// (topology drift). When the trees are identical, the repaired result's
// plan is byte-identical to a full Map (the relaxed re-balance is a strict
// no-op and scheduling is deterministic); under drift the result is a valid
// plan for the new tree that preserves as much of the cached clustering's
// locality as the new client count allows.
//
// Only DepIgnore runs are resumable, and cfg.DepMode must agree.
func Resume(ctx context.Context, st *State, cfg Config) (*Result, error) {
	if st == nil || st.Clustering == nil {
		return nil, fmt.Errorf("pipeline: nil resume state")
	}
	if st.Scheme != InterProcessor && st.Scheme != InterProcessorSched {
		return nil, fmt.Errorf("pipeline: scheme %q is not resumable", st.Scheme)
	}
	if cfg.DepMode != DepIgnore {
		return nil, fmt.Errorf("pipeline: dependence-aware modes cannot resume mid-pipeline")
	}
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	r := NewRun(ctx)
	r.SetHook(cfg.StageHook)
	res := &Result{Scheme: st.Scheme, NumChunks: st.NumChunks, resumable: true}

	var perClient [][]*tags.IterationChunk
	if err := r.stage(StageBalance, func(ctx context.Context) error {
		opts := cfg.Options
		opts.Workers = cfg.Workers
		var err error
		perClient, err = core.RebalanceClusters(ctx, st.Clustering, cfg.Tree, opts)
		return err
	}); err != nil {
		return nil, err
	}
	res.Clustering = perClient

	if err := r.stage(StageSchedule, func(ctx context.Context) error {
		var err error
		perClient, err = core.RescheduleStages(ctx, perClient, cfg.Tree, cfg.Schedule, st.Scheme == InterProcessorSched)
		return err
	}); err != nil {
		return nil, err
	}
	res.PerClient = perClient

	if err := r.stage(StageEncode, func(context.Context) error {
		res.Assignment = encodeAssignment(perClient)
		return nil
	}); err != nil {
		return nil, err
	}
	res.Stages = r.Timings()
	return res, nil
}

// encodeAssignment converts per-client chunk lists into the simulator's
// assignment form, dropping empty chunks. Every client's blocks are a
// capped window of one slab sized to the non-empty chunks; a client with
// none keeps a nil list.
func encodeAssignment(perClient [][]*tags.IterationChunk) iosim.Assignment {
	n := 0
	for _, cl := range perClient {
		for _, c := range cl {
			if !c.Iters.IsEmpty() {
				n++
			}
		}
	}
	slab := make([]iosim.Block, 0, n)
	asg := make(iosim.Assignment, len(perClient))
	for ci, cl := range perClient {
		lo := len(slab)
		for _, c := range cl {
			if !c.Iters.IsEmpty() {
				slab = append(slab, iosim.Block{Set: c.Iters})
			}
		}
		if len(slab) > lo {
			asg[ci] = slab[lo:len(slab):len(slab)]
		}
	}
	return asg
}
