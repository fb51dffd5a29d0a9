// Package pipeline is the staged planner: it models the paper's mapping
// phases — tag computation (Section 4.2), iteration-chunk formation,
// similarity-graph weighting, hierarchical clustering and load balancing
// (Figure 5), local scheduling (Figure 15) and assignment encoding — as
// named stages executed under one Run that carries the caller's
// context.Context, accumulates per-stage wall-clock and allocation stats,
// and wraps failures in a StageError identifying the failing stage.
//
// Every mapping entry point in the repository (the cachemap facade, the
// daemons, the experiment harness and the CLIs) routes through this
// package; core.DistributeCtx / core.ScheduleCtx are implementation
// details the pipeline drives.
//
// The embarrassingly parallel stages (tag computation over iteration
// ranges, similarity weighting over row blocks) fan out over
// Config.Workers goroutines with a deterministic merge order, so results
// are byte-identical at any worker count.
package pipeline

import (
	"context"
	"fmt"
	"runtime/metrics"
	"sync"
	"time"

	"repro/internal/obs"
)

// Stage names, in canonical execution order.
const (
	StageTags       = "tags"
	StageChunks     = "chunks"
	StageSimilarity = "similarity"
	StageCluster    = "cluster"
	StageBalance    = "balance"
	StageSchedule   = "schedule"
	StageEncode     = "encode"
)

// StageNames returns all stage names in canonical execution order.
func StageNames() []string {
	return []string{StageTags, StageChunks, StageSimilarity, StageCluster,
		StageBalance, StageSchedule, StageEncode}
}

// StageError reports which pipeline stage failed.
type StageError struct {
	Stage string
	Err   error
}

func (e *StageError) Error() string { return fmt.Sprintf("pipeline: stage %s: %v", e.Stage, e.Err) }
func (e *StageError) Unwrap() error { return e.Err }

// FailedStage extracts the failing stage name from an error returned by
// the pipeline, or "" if the error carries no stage identity.
func FailedStage(err error) string {
	for err != nil {
		if se, ok := err.(*StageError); ok {
			return se.Stage
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return ""
		}
		err = u.Unwrap()
	}
	return ""
}

// StageStats accumulates the cost of one stage within a Run.
type StageStats struct {
	// Duration is accumulated wall time (a stage driven from inside the
	// recursive hierarchy walk, like similarity weighting, can start and
	// stop many times per run).
	Duration time.Duration
	// AllocBytes is the heap allocation delta observed across top-level
	// stage executions. It is process-global (concurrent runs bleed into
	// each other's numbers) and recorded only for stages the pipeline
	// drives directly, not for sub-phases reported via RecordPhase.
	AllocBytes uint64
	// PairsGenerated and PairsDense quantify the sparse similarity
	// engine's work on the similarity stage: pairs actually materialized
	// (tag overlap, ω ≥ 1) versus the dense n(n−1)/2 bound, accumulated
	// across the recursive hierarchy walk. Zero on every other stage.
	PairsGenerated int64
	PairsDense     int64
}

// StageTiming is the serializable per-stage breakdown attached to results
// and API responses.
type StageTiming struct {
	Stage      string  `json:"stage"`
	DurationMS float64 `json:"duration_ms"`
	AllocBytes uint64  `json:"alloc_bytes,omitempty"`
	// Similarity-stage pair generation: pairs the sparse engine seeded
	// versus the dense n(n−1)/2 bound it replaced.
	PairsGenerated int64 `json:"pairs_generated,omitempty"`
	PairsDense     int64 `json:"pairs_dense,omitempty"`
}

// Run is the shared state of one pipeline execution: the caller's context
// plus the per-stage stats accumulated so far. A Run is safe for
// concurrent use by the parallel stages. It implements core.PhaseClock, so
// the distributor reports its internal similarity/cluster/balance phases
// into the same ledger.
type Run struct {
	ctx   context.Context
	hook  StageHook
	mu    sync.Mutex
	stats map[string]*StageStats
}

// StageHook runs at the start of every top-level stage, before the stage's
// work. A non-nil error aborts the stage (wrapped in a *StageError naming
// it). The serving layer uses it for fault injection — latency spikes and
// stage errors — without the pipeline depending on the injector.
type StageHook func(ctx context.Context, stage string) error

// SetHook installs the run's stage hook (nil clears it). It must be set
// before stages execute.
func (r *Run) SetHook(h StageHook) { r.hook = h }

// NewRun starts a pipeline run under ctx (nil means context.Background()).
func NewRun(ctx context.Context) *Run {
	if ctx == nil {
		ctx = context.Background()
	}
	return &Run{ctx: ctx, stats: make(map[string]*StageStats)}
}

// Context returns the context the run was started with.
func (r *Run) Context() context.Context { return r.ctx }

func (r *Run) add(stage string, d time.Duration, alloc uint64) {
	r.mu.Lock()
	s := r.stats[stage]
	if s == nil {
		s = &StageStats{}
		r.stats[stage] = s
	}
	s.Duration += d
	s.AllocBytes += alloc
	r.mu.Unlock()
}

// RecordPhase implements core.PhaseClock: the distributor reports each
// phase as one after-the-fact (name, start, duration) call, which lands on
// the named stage. The interval is also recorded as a span under the run's
// context (when traced), so a request trace shows each phase with exactly
// the ledger's duration.
func (r *Run) RecordPhase(name string, start time.Time, d time.Duration) {
	r.add(name, d, 0)
	obs.Record(r.ctx, name, start, d)
}

// RecordSimilarityPairs implements core.PairStatsRecorder: the distributor
// reports, for each hierarchy node it clusters, how many similarity pairs
// the sparse engine generated versus the dense bound. The counts accumulate
// on the similarity stage's ledger entry.
func (r *Run) RecordSimilarityPairs(generated, dense int64) {
	r.mu.Lock()
	s := r.stats[StageSimilarity]
	if s == nil {
		s = &StageStats{}
		r.stats[StageSimilarity] = s
	}
	s.PairsGenerated += generated
	s.PairsDense += dense
	r.mu.Unlock()
}

// heapAllocs reads cumulative heap allocation cheaply (no stop-the-world).
func heapAllocs() uint64 {
	sample := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(sample)
	if sample[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return sample[0].Value.Uint64()
}

// stage executes fn as the named top-level stage: it refuses to start on a
// canceled context, accumulates wall clock and allocation delta, and wraps
// any failure in a *StageError naming the stage. Under a traced context
// the same measured interval is recorded as a span, so the trace's
// per-stage durations agree exactly with the ledger (and therefore with
// the "stages" breakdown in API responses).
func (r *Run) stage(name string, fn func(ctx context.Context) error) error {
	if err := r.ctx.Err(); err != nil {
		return &StageError{Stage: name, Err: err}
	}
	if r.hook != nil {
		if err := r.hook(r.ctx, name); err != nil {
			if se, ok := err.(*StageError); ok {
				return se
			}
			return &StageError{Stage: name, Err: err}
		}
	}
	a0 := heapAllocs()
	start := time.Now()
	err := fn(r.ctx)
	d := time.Since(start)
	if a1 := heapAllocs(); a1 > a0 {
		r.add(name, d, a1-a0)
	} else {
		r.add(name, d, 0)
	}
	obs.Record(r.ctx, name, start, d)
	if err != nil {
		if se, ok := err.(*StageError); ok {
			return se
		}
		return &StageError{Stage: name, Err: err}
	}
	return nil
}

// Timings returns the per-stage breakdown in canonical stage order,
// omitting stages that never ran.
func (r *Run) Timings() []StageTiming {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]StageTiming, 0, len(r.stats))
	for _, name := range StageNames() {
		s, ok := r.stats[name]
		if !ok {
			continue
		}
		out = append(out, StageTiming{
			Stage:          name,
			DurationMS:     float64(s.Duration) / float64(time.Millisecond),
			AllocBytes:     s.AllocBytes,
			PairsGenerated: s.PairsGenerated,
			PairsDense:     s.PairsDense,
		})
	}
	return out
}
