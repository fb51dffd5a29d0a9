// Package pipeline is the staged planner: it models the paper's mapping
// phases — tag computation (Section 4.2), iteration-chunk formation,
// similarity-graph weighting, hierarchical clustering and load balancing
// (Figure 5), local scheduling (Figure 15) and assignment encoding — as
// named stages executed under one Run that carries the caller's
// context.Context, accumulates one per-stage ledger of wall-clock time,
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
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// Stage names, in canonical execution order. The distributor's three
// phases are core's names, so every phase it reports finds its slot in a
// Run's ledger.
const (
	StageTags       = "tags"
	StageChunks     = "chunks"
	StageSimilarity = core.PhaseSimilarity
	StageCluster    = core.PhaseCluster
	StageBalance    = core.PhaseBalance
	StageSchedule   = "schedule"
	StageEncode     = "encode"
)

// stageNames is the canonical order, one ledger slot per name.
var stageNames = [...]string{StageTags, StageChunks, StageSimilarity, StageCluster,
	StageBalance, StageSchedule, StageEncode}

// StageNames returns all stage names in canonical execution order.
func StageNames() []string { return append([]string(nil), stageNames[:]...) }

// StageError reports which pipeline stage failed.
type StageError struct {
	Stage string
	Err   error
}

func (e *StageError) Error() string { return fmt.Sprintf("pipeline: stage %s: %v", e.Stage, e.Err) }
func (e *StageError) Unwrap() error { return e.Err }

// stageErr attributes err to the named stage. An error that is already a
// *StageError keeps the stage it names; nil stays nil.
func stageErr(stage string, err error) error {
	if err == nil {
		return nil
	}
	if se, ok := err.(*StageError); ok {
		return se
	}
	return &StageError{Stage: stage, Err: err}
}

// FailedStage extracts the failing stage name from an error returned by
// the pipeline, or "" if the error carries no stage identity.
func FailedStage(err error) string {
	var se *StageError
	if errors.As(err, &se) {
		return se.Stage
	}
	return ""
}

// StageTiming is one stage's cost within a run: the entry of a Run's
// ledger and the per-stage breakdown attached to results and API
// responses.
type StageTiming struct {
	Stage string `json:"stage"`
	// DurationMS is accumulated wall time (a stage driven from inside the
	// recursive hierarchy walk, like similarity weighting, can start and
	// stop many times per run).
	DurationMS float64 `json:"duration_ms"`
	// PairsGenerated and PairsDense quantify the sparse similarity
	// engine's work on the similarity stage: pairs actually materialized
	// (tag overlap, ω ≥ 1) versus the dense n(n−1)/2 bound, accumulated
	// across the recursive hierarchy walk. Zero on every other stage.
	PairsGenerated int64 `json:"pairs_generated,omitempty"`
	PairsDense     int64 `json:"pairs_dense,omitempty"`
}

// Run is the shared state of one pipeline execution: the caller's context
// plus the per-stage ledger accumulated so far. A Run is safe for
// concurrent use by the parallel stages. It implements core.PhaseClock, so
// the distributor reports its internal similarity/cluster/balance phases
// into the same ledger.
type Run struct {
	ctx  context.Context
	hook StageHook
	mu   sync.Mutex
	// ledger holds one entry per canonical stage, in stageNames order; an
	// entry whose Stage is empty never ran. dur sums each entry's wall
	// time, which Timings converts to DurationMS once.
	ledger [len(stageNames)]StageTiming
	dur    [len(stageNames)]time.Duration
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
	return &Run{ctx: ctx}
}

// mark returns the ledger slot of the named stage, marking it as run, or
// -1 for a name outside the canonical stages. r.mu must be held.
func (r *Run) mark(name string) int {
	for i, s := range stageNames {
		if s == name {
			r.ledger[i].Stage = name
			return i
		}
	}
	return -1
}

// RecordPhase implements core.PhaseClock, and every stage the pipeline
// drives itself records through it too: the interval lands on the named
// stage's ledger entry and, under a traced context, is recorded as a span,
// so a request trace shows each stage with exactly the ledger's duration.
func (r *Run) RecordPhase(name string, start time.Time, d time.Duration) {
	r.mu.Lock()
	if i := r.mark(name); i >= 0 {
		r.dur[i] += d
	}
	r.mu.Unlock()
	obs.Record(r.ctx, name, start, d)
}

// RecordSimilarityPairs implements core.PairStatsRecorder: the distributor
// reports, for each hierarchy node it clusters, how many similarity pairs
// the sparse engine generated versus the dense bound. The counts accumulate
// on the similarity stage's ledger entry.
func (r *Run) RecordSimilarityPairs(generated, dense int64) {
	r.mu.Lock()
	s := &r.ledger[r.mark(StageSimilarity)]
	s.PairsGenerated += generated
	s.PairsDense += dense
	r.mu.Unlock()
}

// stage executes fn as the named top-level stage: it refuses to start on a
// canceled context, records its wall clock through RecordPhase, and wraps
// any failure in a *StageError naming the stage.
func (r *Run) stage(name string, fn func(ctx context.Context) error) error {
	if err := r.ctx.Err(); err != nil {
		return stageErr(name, err)
	}
	if r.hook != nil {
		if err := r.hook(r.ctx, name); err != nil {
			return stageErr(name, err)
		}
	}
	start := time.Now()
	err := fn(r.ctx)
	r.RecordPhase(name, start, time.Since(start))
	return stageErr(name, err)
}

// Timings returns the per-stage breakdown in canonical stage order,
// omitting stages that never ran.
func (r *Run) Timings() []StageTiming {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]StageTiming, 0, len(r.ledger))
	for i, st := range r.ledger {
		if st.Stage != "" {
			st.DurationMS = float64(r.dur[i]) / float64(time.Millisecond)
			out = append(out, st)
		}
	}
	return out
}
