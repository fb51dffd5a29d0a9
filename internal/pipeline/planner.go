package pipeline

import (
	"context"
	"fmt"
	"runtime"

	"repro/internal/core"
	"repro/internal/hierarchy"
	"repro/internal/iosim"
	"repro/internal/itset"
	"repro/internal/locality"
	"repro/internal/polyhedral"
	"repro/internal/tags"
)

// Scheme selects a mapping strategy (Section 5.1 of the paper).
type Scheme string

const (
	// Original maps iterations in lexicographic order, divided into k
	// contiguous clusters — the default mapping of a parallelized loop.
	Original Scheme = "original"
	// IntraProcessor is the state-of-the-art locality baseline: loop
	// permutation plus tiling optimize each client's own stream, then the
	// transformed order is divided contiguously. Hierarchy agnostic.
	IntraProcessor Scheme = "intra"
	// InterProcessor is the paper's scheme: iteration chunks distributed
	// by the Figure 5 hierarchical clustering algorithm.
	InterProcessor Scheme = "inter"
	// InterProcessorSched adds the Figure 15 local scheduling enhancement.
	InterProcessorSched Scheme = "inter-sched"
)

// Schemes lists all mapping strategies in evaluation order.
func Schemes() []Scheme {
	return []Scheme{Original, IntraProcessor, InterProcessor, InterProcessorSched}
}

// ParseScheme validates a scheme name.
func ParseScheme(s string) (Scheme, error) {
	switch Scheme(s) {
	case Original, IntraProcessor, InterProcessor, InterProcessorSched:
		return Scheme(s), nil
	}
	return "", fmt.Errorf("pipeline: unknown scheme %q", s)
}

// DepMode selects how loops with cross-iteration dependences are handled
// (Section 5.4).
type DepMode int

const (
	// DepIgnore assumes the parallelized iterations are dependence-free
	// (the paper's main experiments).
	DepIgnore DepMode = iota
	// DepMerge pre-clusters dependent iteration chunks into one super-chunk
	// (infinite edge weight): no synchronization needed, less parallelism.
	DepMerge
	// DepSync distributes normally, treating dependences as ordinary data
	// sharing, and reports the number of cross-client dependence edges that
	// need runtime synchronization (the paper's implemented alternative).
	DepSync
)

// Config parameterizes Map.
type Config struct {
	Tree *hierarchy.Tree
	// Distribution options (inter schemes). Zero value = paper defaults.
	Options core.Options
	// Scheduling weights (InterProcessorSched). Zero value = α=β=0.5.
	// Its Workers is always set from Config.Workers.
	Schedule core.ScheduleOptions
	// DepMode controls dependence handling for inter schemes.
	DepMode DepMode
	// Workers bounds the goroutines of the parallel stages (tag sharding,
	// similarity weighting, the subtrees below a large split and Figure
	// 15's I/O groups). 0 uses GOMAXPROCS. Results are byte-identical at
	// any worker count, so Workers never belongs in a cache key.
	Workers int
	// StageHook, when non-nil, runs at the start of every stage; a non-nil
	// error aborts the stage. Used for fault injection; never part of a
	// cache key.
	StageHook StageHook
}

func (c *Config) normalize() error {
	if c.Tree == nil {
		return fmt.Errorf("pipeline: nil tree")
	}
	if c.Options.BalanceThreshold == 0 {
		c.Options.BalanceThreshold = core.DefaultOptions().BalanceThreshold
	}
	if c.Schedule.Alpha == 0 && c.Schedule.Beta == 0 {
		c.Schedule = core.DefaultScheduleOptions()
	}
	if c.Workers < 1 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	c.Schedule.Workers = c.Workers
	return nil
}

// Result is a computed mapping.
type Result struct {
	Scheme     Scheme
	Assignment iosim.Assignment
	// PerClient holds the iteration chunks per client for inter schemes
	// (nil for original/intra).
	PerClient [][]*tags.IterationChunk
	// Chunks is the full iteration chunk list fed to the distributor.
	Chunks []*tags.IterationChunk
	// SyncEdges counts cross-client dependent chunk pairs under DepSync.
	SyncEdges int
	// NumChunks is the length of the original chunk list the distributor
	// was fed (before dependence pre-merging). It survives a Resume, where
	// the chunk list itself is gone, so repaired plans report the same
	// iteration_chunks as their full-compute ancestors.
	NumChunks int
	// Clustering is the post-balance, pre-schedule per-client chunk
	// assignment — the artifact a Resume re-enters the pipeline with. Set
	// for inter schemes; nil otherwise.
	Clustering [][]*tags.IterationChunk
	// Stages is the per-stage timing breakdown of the run that produced
	// this result, in canonical stage order.
	Stages []StageTiming

	// resumable marks results whose Clustering can seed a Resume (inter
	// schemes under DepIgnore; dependence-aware modes need tags/chunks
	// stage artifacts a State does not carry).
	resumable bool
}

// Map computes the iteration-to-processor mapping of prog under the given
// scheme, honoring ctx for cancellation: the expensive stages check ctx
// cooperatively and abort with a *StageError wrapping ctx.Err().
func Map(ctx context.Context, scheme Scheme, prog iosim.Program, cfg Config) (*Result, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	if err := prog.Validate(); err != nil {
		return nil, err
	}
	r := NewRun(ctx)
	r.SetHook(cfg.StageHook)
	var res *Result
	var err error
	switch scheme {
	case Original:
		res, err = mapOriginal(r, prog, cfg)
	case IntraProcessor:
		res, err = mapIntra(r, prog, cfg)
	case InterProcessor, InterProcessorSched:
		res, err = mapInter(r, scheme, prog, cfg)
	default:
		return nil, fmt.Errorf("pipeline: unknown scheme %q", scheme)
	}
	if err != nil {
		return nil, err
	}
	res.Stages = r.Timings()
	return res, nil
}

// validIndexSet collects the executing iterations of the nest as a
// run-length set of box indices.
func validIndexSet(nest *polyhedral.Nest) itset.Set {
	if len(nest.Guards) == 0 {
		return itset.Interval(0, nest.BoxSize())
	}
	var s itset.Set
	nest.ForEach(func(it []int64) bool {
		idx := nest.IterToIndex(it)
		s.Append(idx, idx+1)
		return true
	})
	return s
}

// mapOriginal splits the lexicographic iteration order into k contiguous
// clusters.
func mapOriginal(r *Run, prog iosim.Program, cfg Config) (*Result, error) {
	var all itset.Set
	if err := r.stage(StageChunks, func(context.Context) error {
		all = validIndexSet(prog.Nest)
		return nil
	}); err != nil {
		return nil, err
	}
	res := &Result{Scheme: Original}
	err := r.stage(StageEncode, func(context.Context) error {
		k := cfg.Tree.NumClients()
		total := all.Count()
		asg := make(iosim.Assignment, k)
		rest := all
		for c := 0; c < k; c++ {
			share := total / int64(k)
			if int64(c) < total%int64(k) {
				share++
			}
			var part itset.Set
			part, rest = rest.SplitAt(share)
			if !part.IsEmpty() {
				asg[c] = []iosim.Block{{Set: part}}
			}
		}
		res.Assignment = asg
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// mapIntra applies locality transformations (permutation + tiling, the
// tiles sized to the client cache), then splits the transformed order
// contiguously.
func mapIntra(r *Run, prog iosim.Program, cfg Config) (*Result, error) {
	var order polyhedral.Order
	if err := r.stage(StageChunks, func(context.Context) error {
		deps := polyhedral.Analyze(prog.Nest, prog.Refs)
		order = locality.Optimize(prog.Nest, prog.Refs, prog.Data, deps, cfg.Tree.Client(0).CacheChunks)
		return nil
	}); err != nil {
		return nil, err
	}
	return mapIntraOrder(r, prog, cfg, order)
}

// MapIntraCandidates returns one intra-processor mapping per candidate
// execution order (the footprint-heuristic tiling plus each uniform tile
// size in sizes, plus the untiled permutation). The paper selected its tile
// size by trying several and keeping the best-performing one; callers
// evaluate each candidate and keep the winner.
func MapIntraCandidates(ctx context.Context, prog iosim.Program, cfg Config, sizes ...int64) ([]*Result, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	if err := prog.Validate(); err != nil {
		return nil, err
	}
	r := NewRun(ctx)
	var orders []polyhedral.Order
	if err := r.stage(StageChunks, func(context.Context) error {
		deps := polyhedral.Analyze(prog.Nest, prog.Refs)
		orders = locality.CandidateOrders(prog.Nest, prog.Refs, prog.Data, deps, cfg.Tree.Client(0).CacheChunks, sizes...)
		// Always include the untiled (permutation-only) order.
		orders = append(orders, polyhedral.Order{Perm: append([]int(nil), orders[0].Perm...)})
		return nil
	}); err != nil {
		return nil, err
	}
	out := make([]*Result, 0, len(orders))
	for _, o := range orders {
		res, err := mapIntraOrder(r, prog, cfg, o)
		if err != nil {
			return nil, err
		}
		out = append(out, res)
	}
	timings := r.Timings()
	for _, res := range out {
		res.Stages = timings
	}
	return out, nil
}

func mapIntraOrder(r *Run, prog iosim.Program, cfg Config, order polyhedral.Order) (*Result, error) {
	res := &Result{Scheme: IntraProcessor}
	err := r.stage(StageEncode, func(context.Context) error {
		indices := order.Indices(prog.Nest)
		k := cfg.Tree.NumClients()
		asg := make(iosim.Assignment, k)
		total := int64(len(indices))
		var lo int64
		for c := 0; c < k; c++ {
			share := total / int64(k)
			if int64(c) < total%int64(k) {
				share++
			}
			hi := lo + share
			if hi > lo {
				asg[c] = []iosim.Block{{Explicit: indices[lo:hi]}}
			}
			lo = hi
		}
		res.Assignment = asg
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// distribute runs core.DistributeCtx with the run as phase clock, so the
// similarity/cluster/balance stages land in the run's ledger; errors are
// attributed to the cluster stage (the phase the context checks live in).
func distribute(r *Run, chunks []*tags.IterationChunk, cfg Config) ([][]*tags.IterationChunk, error) {
	// The distributor drives its own phases, so the cluster stage's hook
	// fires here rather than through r.stage.
	if r.hook != nil {
		if err := r.hook(r.Context(), StageCluster); err != nil {
			return nil, &StageError{Stage: StageCluster, Err: err}
		}
	}
	opts := cfg.Options
	opts.Workers = cfg.Workers
	opts.Clock = r
	perClient, err := core.DistributeCtx(r.Context(), chunks, cfg.Tree, opts)
	if err != nil {
		return nil, &StageError{Stage: StageCluster, Err: err}
	}
	return perClient, nil
}

// Distribute runs the paper's Figure 5 hierarchical distribution as a
// standalone pipeline fragment: one Run under ctx, with the similarity,
// cluster and balance phases checking ctx cooperatively. It is the
// supported route to the distributor for callers outside the full Map
// pipeline (the library facade, benchmarks, overhead measurements).
func Distribute(ctx context.Context, chunks []*tags.IterationChunk, tree *hierarchy.Tree, opts core.Options) ([][]*tags.IterationChunk, error) {
	r := NewRun(ctx)
	if opts.Workers < 1 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	if opts.Clock == nil {
		opts.Clock = r
	}
	perClient, err := core.DistributeCtx(r.Context(), chunks, tree, opts)
	if err != nil {
		return nil, &StageError{Stage: StageCluster, Err: err}
	}
	return perClient, nil
}

// Schedule reorders each client's chunks for chunk-level reuse (Figure 15)
// as a standalone pipeline fragment under ctx. Workers below 1 use
// GOMAXPROCS, as in Distribute.
func Schedule(ctx context.Context, assign [][]*tags.IterationChunk, tree *hierarchy.Tree, opts core.ScheduleOptions) ([][]*tags.IterationChunk, error) {
	r := NewRun(ctx)
	if opts.Workers < 1 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	var out [][]*tags.IterationChunk
	if err := r.stage(StageSchedule, func(ctx context.Context) error {
		var err error
		out, err = core.ScheduleCtx(ctx, assign, tree, opts)
		return err
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// mapInter runs the paper's Figure 5 distribution (and optionally the
// Figure 15 schedule).
func mapInter(r *Run, scheme Scheme, prog iosim.Program, cfg Config) (*Result, error) {
	res := &Result{Scheme: scheme}
	if err := r.stage(StageTags, func(ctx context.Context) error {
		chunks, err := tags.ComputeCtx(ctx, prog.Nest, prog.Refs, prog.Data, cfg.Workers)
		res.Chunks = chunks
		return err
	}); err != nil {
		return nil, err
	}

	var pairs [][2]int
	distChunks := res.Chunks
	if err := r.stage(StageChunks, func(context.Context) error {
		if cfg.DepMode != DepIgnore {
			deps := polyhedral.Analyze(prog.Nest, prog.Refs)
			pairs = core.DependentPairs(res.Chunks, prog.Nest, deps)
		}
		if cfg.DepMode == DepMerge {
			distChunks = core.PreMergeDependent(res.Chunks, pairs)
		}
		return nil
	}); err != nil {
		return nil, err
	}

	perClient, err := distribute(r, distChunks, cfg)
	if err != nil {
		return nil, err
	}

	// The pre-schedule clustering is the resumable artifact: a Resume
	// re-enters here with a drifted tree. RescheduleStages never mutates
	// its input, so the snapshot needs no copy.
	res.NumChunks = len(res.Chunks)
	res.Clustering = perClient
	res.resumable = cfg.DepMode == DepIgnore

	if err := r.stage(StageSchedule, func(ctx context.Context) error {
		// For the plain inter-processor scheme the paper executes a
		// client's chunks in no particular order; RescheduleStages uses
		// lexicographic order of first iteration as the deterministic
		// neutral choice.
		var err error
		perClient, err = core.RescheduleStages(ctx, perClient, cfg.Tree, cfg.Schedule, scheme == InterProcessorSched)
		return err
	}); err != nil {
		return nil, err
	}
	res.PerClient = perClient

	if err := r.stage(StageEncode, func(context.Context) error {
		if cfg.DepMode == DepSync {
			owner := make([]int, len(distChunks))
			for i := range owner {
				owner[i] = -1
			}
			pos := make(map[*tags.IterationChunk]int, len(distChunks))
			for i, c := range distChunks {
				pos[c] = i
			}
			for ci, cl := range perClient {
				for _, c := range cl {
					if i, ok := pos[c]; ok {
						owner[i] = ci
					}
				}
			}
			res.SyncEdges = core.CrossClientDependences(pairs, owner)
		}
		res.Assignment = encodeAssignment(perClient)
		return nil
	}); err != nil {
		return nil, err
	}
	return res, nil
}
