package server

import (
	"context"
	"time"

	"repro/internal/hierarchy"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/plancache"
)

// Degradation modes recorded in responses, spans and the
// cachemapd_degraded_responses_total{mode} counter.
const (
	// DegradedStale serves a previously computed plan for the same
	// workload whose topology drifts from the requested one within
	// staleTolerance.
	DegradedStale = "stale"
	// DegradedFallback serves the cheap lexicographic "original" mapping
	// computed inline, bypassing the worker pool.
	DegradedFallback = "fallback"
)

const (
	// staleTolerance is the relative per-layer topology drift under which
	// a stale plan still serves (see plancache.TopoSig).
	staleTolerance = 0.25
	// staleTierSize bounds the stale tier, in workloads.
	staleTierSize = 128
	// fallbackGrace bounds the inline fallback computation when the
	// request deadline has already expired.
	fallbackGrace = 2 * time.Second
)

// staleValue is the stale tier's payload: the cached plan plus the content
// address it was computed under.
type staleValue struct {
	plan cachedPlan
	key  plancache.Key
}

// topoSigOf summarizes a hierarchy for the stale tier's drift comparison:
// per level, the node count and the (maximum) per-node cache capacity.
func topoSigOf(tree *hierarchy.Tree) plancache.TopoSig {
	depth := 0
	for _, n := range tree.Nodes() {
		if n.Level > depth {
			depth = n.Level
		}
	}
	sig := plancache.TopoSig{Levels: make([]plancache.TopoLevel, depth+1)}
	for _, n := range tree.Nodes() {
		l := &sig.Levels[n.Level]
		l.Nodes++
		if n.CacheChunks > l.CacheChunks {
			l.CacheChunks = n.CacheChunks
		}
	}
	return sig
}

// tryDegrade attempts to turn an overload-path failure into a degraded
// 200: first a stale-but-valid plan for the same workload (topology drift
// within tolerance), then the cheap lexicographic fallback mapping. It
// returns false when degradation is disabled, the error is not an
// overload symptom, or every degraded route failed too.
func (s *Server) tryDegrade(ctx context.Context, j *job, cause error, start time.Time) (*MapResponse, bool) {
	if !s.cfg.Degraded {
		return nil, false
	}
	_, why := classify(cause)
	if why == "" {
		return nil, false
	}

	if v, _, age, ok := s.stale.Get(j.wkKey, j.topoSig, staleTolerance); ok {
		s.markDegraded(ctx, DegradedStale, why)
		return &MapResponse{
			raw:           v.plan.Plan,
			Stages:        v.plan.Stages,
			CacheKey:      v.key.String(),
			Cached:        true,
			Degraded:      DegradedStale,
			DegradedCause: why,
			StaleAgeMS:    float64(age) / float64(time.Millisecond),
			ElapsedMS:     msSince(start),
		}, true
	}
	s.staleMisses.Inc()

	// Fallback: the original (lexicographic) mapping is O(iterations) with
	// tiny constants, so it runs inline on the connection goroutine — a
	// degraded request must not compete for the worker pool it was shed
	// from. When the request deadline is already gone, a short grace
	// budget bounds the computation instead.
	fctx := ctx
	if ctx.Err() != nil {
		var cancel context.CancelFunc
		fctx, cancel = context.WithTimeout(context.WithoutCancel(ctx), fallbackGrace)
		defer cancel()
	}
	cfg := j.cfg
	cfg.StageHook = nil // never inject faults into the relief valve
	res, err := pipeline.Map(fctx, pipeline.Original, j.work.Prog, cfg)
	if err != nil {
		return nil, false
	}
	s.markDegraded(ctx, DegradedFallback, why)
	return &MapResponse{
		raw:           newPlanJSON(res),
		Stages:        res.Stages,
		Degraded:      DegradedFallback,
		DegradedCause: why,
		ElapsedMS:     msSince(start),
	}, true
}

// markDegraded records a degraded response on the counter and the request
// span.
func (s *Server) markDegraded(ctx context.Context, mode, cause string) {
	s.degraded.Inc(mode)
	if sp := obs.SpanFromContext(ctx); sp != nil {
		sp.SetAttr("degraded", mode)
		sp.SetAttr("degraded.cause", cause)
	}
}
