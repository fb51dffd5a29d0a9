package server

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"repro/internal/join"
	"repro/internal/plancache"
)

// maxBatchSpecs bounds one batch request. Large fleets should split their
// spec streams; an unbounded batch would let one request monopolize the
// admission budget arbitrarily.
const maxBatchSpecs = 256

// BatchMapRequest is the body of `POST /v1/map/batch`: many mapping specs
// resolved as one admission unit. Specs are grouped by workload family —
// identical requests up to topology — and each family runs the expensive
// pipeline prefix (tags, dependence analysis, similarity, clustering) at
// most once: the family's first spec computes in full, the rest repair its
// clustering for their own topologies (balance + schedule only), provided
// their drift stays within the repair tolerance.
type BatchMapRequest struct {
	Requests []MapRequest `json:"requests"`
}

// BatchResult is one spec's outcome inside a batch response: either an
// embedded map response or an error. Per-spec failures do not fail the
// batch; a batch-level failure (malformed body, shed, deadline) fails the
// whole request instead.
type BatchResult struct {
	*MapResponse
	Error string `json:"error,omitempty"`
}

// BatchMapResponse is the body returned by `POST /v1/map/batch`. Results
// are index-aligned with the request's specs.
type BatchMapResponse struct {
	Results []BatchResult `json:"results"`
	// Families is the number of distinct workload families in the batch.
	Families int `json:"families"`
	// Full / Incremental / CachedN / Errors summarize the outcome mix:
	// full pipeline runs, incremental repairs, plan-cache hits and
	// per-spec failures.
	Full        int `json:"full"`
	Incremental int `json:"incremental"`
	CachedN     int `json:"cached"`
	Errors      int `json:"errors"`
	// ElapsedMS is the server-side time for the whole batch.
	ElapsedMS float64 `json:"elapsed_ms"`
}

// handleBatch serves POST /v1/map/batch.
//
// Admission: the batch enqueues once with the aggregate cost of all its
// specs (Σ iterations × topology size) and holds a single worker slot for
// its whole run — N specs cost one queue spot but their true summed weight,
// so a fat batch sheds exactly like N fat singles would. A shed batch gets
// one 429 with a per-batch Retry-After and has touched no worker. Degraded
// serving does not apply to batches; callers needing per-spec degradation
// retry the failed specs individually.
//
// Within the held slot, each family's leader resolves first (cache hit,
// peer fill or full compute — seeding the stale tier with its clustering),
// then its siblings fan out on up to Workers join.Each workers, the
// request's goroutine among them, repairing the leader's clustering for
// their own topologies. A sibling's panic is re-raised on the request's
// goroutine once the family's workers have returned, where serve turns it
// into a 500.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	s.serve(w, r, func(ctx context.Context, body []byte) (any, error) {
		var req BatchMapRequest
		if err := decodeStrict(body, &req); err != nil {
			return nil, badRequest(err)
		}
		if len(req.Requests) == 0 {
			return nil, badRequest(fmt.Errorf("batch: no requests"))
		}
		if len(req.Requests) > maxBatchSpecs {
			return nil, badRequest(fmt.Errorf("batch: %d requests exceed the limit of %d", len(req.Requests), maxBatchSpecs))
		}
		jobs := make([]*job, len(req.Requests))
		var aggCost int64
		for i, mr := range req.Requests {
			j, err := buildJob(mr)
			if err != nil {
				return nil, badRequest(fmt.Errorf("requests[%d]: %w", i, err))
			}
			jobs[i] = j
			aggCost += j.cost
		}
		s.batchSpecs.Add(int64(len(jobs)))
		start := time.Now()
		return runJob(s, ctx, aggCost, func(ctx context.Context) (*BatchMapResponse, error) {
			return s.runBatch(ctx, jobs, start)
		})
	})
}

// runBatch resolves the batch's jobs family by family on the worker slot
// the batch already holds. It only fails outright on batch-level context
// expiry; per-spec errors land in their result slots.
func (s *Server) runBatch(ctx context.Context, jobs []*job, start time.Time) (*BatchMapResponse, error) {
	// Group by workload family (the workload-only content key), keeping
	// first-appearance order for determinism.
	groups := make(map[plancache.Key][]int, len(jobs))
	var order []plancache.Key
	for i, j := range jobs {
		if _, ok := groups[j.wkKey]; !ok {
			order = append(order, j.wkKey)
		}
		groups[j.wkKey] = append(groups[j.wkKey], i)
	}

	results := make([]BatchResult, len(jobs))
	for _, k := range order {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		idxs := groups[k]
		// The family leader resolves synchronously: its compute (or cache
		// hit) deposits the family's clustering in the stale tier, which is
		// what the siblings repair from.
		leader := idxs[0]
		results[leader] = s.batchEntry(ctx, jobs[leader], s.cfg.Repair.Enabled)
		// fn never fails: a spec's error lands in its result slot.
		siblings := idxs[1:]
		_ = join.Each(s.cfg.Workers, len(siblings), func(_, x int) error {
			i := siblings[x]
			results[i] = s.batchEntry(ctx, jobs[i], true)
			return nil
		})
	}

	resp := &BatchMapResponse{
		Results:   results,
		Families:  len(order),
		ElapsedMS: msSince(start),
	}
	for _, r := range results {
		switch {
		case r.Error != "":
			resp.Errors++
		case r.Cached:
			resp.CachedN++
		case r.Replanned == ReplanIncremental:
			resp.Incremental++
		default:
			resp.Full++
		}
	}
	return resp, nil
}

// batchEntry resolves one spec of a batch through the plan cache, with the
// repair path enabled per the caller (always for family siblings; for
// leaders only when the server-wide repair fast-path is on).
func (s *Server) batchEntry(ctx context.Context, j *job, repair bool) BatchResult {
	resp, err := s.computePlan(ctx, j, computeOpts{repair: repair}, time.Now())
	if err != nil {
		return BatchResult{Error: err.Error()}
	}
	return BatchResult{MapResponse: resp}
}
