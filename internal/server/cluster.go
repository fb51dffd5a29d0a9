package server

// Clustered serving: with a cluster.Node configured, N cachemapd
// processes form one logical plan cache. Every plan key has a single
// owner on the consistent-hash ring; a local miss first asks the owner
// over the internal fill protocol before computing. Cross-node
// singleflight is the composition of two local ones: the requester's
// plancache.Do collapses its concurrent local misses into one fill
// fetch, and the owner's plancache.Do collapses fills from every node
// (plus its own traffic) into one pipeline computation — so a hot cold
// key is computed once fleet-wide, with followers waiting behind the
// fill timeout and falling back to local compute if the owner fails.
//
// Internal protocol (plan wire format v1):
//
//	POST /internal/plan/{key}   body: the normalized MapRequest
//
// The path names the plan's content address; the owner recomputes it
// from the body and rejects mismatches (schema or normalization skew
// between fleet versions), which the requester treats like any refusal:
// compute locally. Internal requests pass through the owner's admission
// queue like client traffic — an overloaded owner sheds fills with 429
// — but never degrade to stale plans (the requester has its own stale
// tier and fallback). Fetched plans land in the requester's primary
// cache and stale tier, so every node that ever filled a workload can
// serve it degraded when the owner is down.

import (
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"time"

	"repro/internal/cluster"
	"repro/internal/mapping"
	"repro/internal/pipeline"
	"repro/internal/plancache"
)

// PlanKey returns the plan-cache content address of req (defaults
// applied): the identity the ring shards on. Exported so ring tooling and
// the multi-process tests can locate a key's owner without a server.
func PlanKey(req MapRequest) (plancache.Key, error) {
	req.normalize()
	return plancache.KeyOf(planKeySpec{Schema: mapping.PlanSchemaVersion, Request: req})
}

// fillResponse is the body of POST /internal/plan/{key}: the plan wire
// format v1 payload a peer fill transfers, plus provenance. The owner
// leaves Plan zero and splices its plan bytes (raw) into the body; the
// requester decodes Plan to check it.
type fillResponse struct {
	Plan     mapping.Plan           `json:"plan"`
	Stages   []pipeline.StageTiming `json:"stages"`
	CacheKey string                 `json:"cache_key"`
	// Cached reports whether the owner already held the plan.
	Cached bool `json:"cached"`
	// Node is the owner's ring address.
	Node string `json:"node"`

	raw *planJSON
}

// peerFill tries to satisfy a local miss from the key's owner. It runs
// inside the local singleflight leader, so one fetch serves every local
// waiter. Any failure (owner down, slow, overloaded, protocol skew, a
// plan that fails checkFill) reports false and the caller computes
// locally.
func (s *Server) peerFill(ctx context.Context, owner string, j *job) (cachedPlan, bool) {
	body, err := json.Marshal(j.req)
	if err != nil {
		return cachedPlan{}, false
	}
	raw, _, err := s.cluster.FetchPlan(ctx, owner, j.key, body, s.inject)
	if err != nil {
		return cachedPlan{}, false
	}
	cp, err := checkFill(raw, j)
	if err != nil {
		s.fillRejects.Inc()
		if s.cfg.Logger != nil {
			s.cfg.Logger.Warn("peer fill returned an unusable payload",
				"peer", owner, "key", j.key.String(), "err", err)
		}
		return cachedPlan{}, false
	}
	cp.FilledFrom = owner
	return cp, true
}

// checkFill turns a peer-fill body into a cache value, or rejects it. A
// filled plan lands in the memory tier, the stale tier and the disk log,
// so it is checked once, here, against the job it answers: the content
// address, then the plan itself (see checkPlan). This is where a filled
// plan is decoded; its canonical bytes are encoded afresh from the
// decoded plan.
func checkFill(body []byte, j *job) (cachedPlan, error) {
	var fr fillResponse
	if err := json.Unmarshal(body, &fr); err != nil {
		return cachedPlan{}, err
	}
	if fr.CacheKey != j.key.String() {
		return cachedPlan{}, fmt.Errorf("fill answers key %q, want %s", fr.CacheKey, j.key)
	}
	if err := checkPlan(&fr.Plan, j); err != nil {
		return cachedPlan{}, err
	}
	raw, err := json.Marshal(fr.Plan)
	if err != nil {
		return cachedPlan{}, err
	}
	return cachedPlan{Plan: &planJSON{raw: raw}, Stages: fr.Stages}, nil
}

// checkPlan verifies that p is a plan of this build's schema for j: one
// work list per client of j's topology, and blocks whose runs and explicit
// indices lie inside the nest's box, overlap nowhere and add up to the
// nest's iteration count, which the plan must also declare.
func checkPlan(p *mapping.Plan, j *job) error {
	if p.Schema != mapping.PlanSchemaVersion {
		return fmt.Errorf("plan schema %d, want %d", p.Schema, mapping.PlanSchemaVersion)
	}
	if want := j.tree.NumClients(); p.Clients != want || len(p.Work) != want {
		return fmt.Errorf("plan for %d clients (%d work lists) on a %d-client topology", p.Clients, len(p.Work), want)
	}
	nest := j.work.Prog.Nest
	box := nest.BoxSize()
	var spans [][2]int64
	for c, blocks := range p.Work {
		for i, b := range blocks {
			if b.Runs != nil && b.Explicit != nil {
				return fmt.Errorf("client %d block %d has both runs and explicit indices", c, i)
			}
			for _, r := range b.Runs {
				if r[0] < 0 || r[1] <= r[0] || r[1] > box {
					return fmt.Errorf("client %d block %d run [%d,%d) is empty or outside [0,%d)", c, i, r[0], r[1], box)
				}
				spans = append(spans, r)
			}
			for _, x := range b.Explicit {
				if x < 0 || x >= box {
					return fmt.Errorf("client %d block %d index %d is outside [0,%d)", c, i, x, box)
				}
				spans = append(spans, [2]int64{x, x + 1})
			}
		}
	}
	slices.SortFunc(spans, func(a, b [2]int64) int { return cmp.Compare(a[0], b[0]) })
	var total int64
	for i, sp := range spans {
		if i > 0 && sp[0] < spans[i-1][1] {
			return fmt.Errorf("iterations [%d,%d) are mapped twice", sp[0], min(sp[1], spans[i-1][1]))
		}
		total += sp[1] - sp[0]
	}
	if want := nest.Size(); total != want || p.TotalIterations != want {
		return fmt.Errorf("plan maps %d iterations and declares %d, want %d", total, p.TotalIterations, want)
	}
	return nil
}

// handleInternalPlan serves the owner side of the fill protocol. The
// request runs through the same validation, admission queue and plan
// cache as client traffic; overload statuses (429/503/504) tell the
// requester to compute locally. Degraded serving never applies here.
func (s *Server) handleInternalPlan(w http.ResponseWriter, r *http.Request) {
	s.serve(w, r, func(ctx context.Context, body []byte) (any, error) {
		if s.cluster == nil {
			return nil, &httpError{status: http.StatusNotFound,
				err: fmt.Errorf("clustering disabled (run with -peers/-self)")}
		}
		var req MapRequest
		if err := decodeStrict(body, &req); err != nil {
			return nil, badRequest(err)
		}
		j, err := buildJob(req)
		if err != nil {
			return nil, badRequest(err)
		}
		if want := r.PathValue("key"); j.key.String() != want {
			return nil, badRequest(fmt.Errorf(
				"fill key mismatch: body hashes to %s, path names %s (plan schema or normalization skew between peers)",
				j.key, want))
		}
		resp, err := runJob(s, ctx, j.cost, func(ctx context.Context) (*MapResponse, error) {
			// internal=true: the owner never re-forwards, so a skewed ring
			// view degenerates to local compute instead of a forwarding loop.
			return s.computePlan(ctx, j, computeOpts{internal: true}, time.Now())
		})
		if err != nil {
			return nil, err
		}
		return &fillResponse{
			raw:      resp.raw,
			Stages:   resp.Stages,
			CacheKey: resp.CacheKey,
			Cached:   resp.Cached,
			Node:     s.cluster.Self(),
		}, nil
	})
}

// healthzResponse is the body of GET /healthz: liveness plus enough
// serving-capacity signal for an orchestrator to distinguish "up" from
// "healthy" — admission-queue occupancy, worker saturation and (when
// clustered) per-peer reachability with last-error age.
type healthzResponse struct {
	Status    string          `json:"status"`
	Admission healthAdmission `json:"admission"`
	Ring      *healthRing     `json:"ring,omitempty"`
}

type healthAdmission struct {
	// Queued and Cost describe the admission queue right now; Limit is its
	// configured depth bound.
	Queued int   `json:"queued"`
	Limit  int   `json:"limit"`
	Cost   int64 `json:"cost"`
	// Workers is the worker-pool size; InFlight the requests currently
	// being served (all endpoints).
	Workers  int   `json:"workers"`
	InFlight int64 `json:"in_flight"`
}

type healthRing struct {
	Self string `json:"self"`
	// Size counts ring members including this node.
	Size  int                  `json:"size"`
	Peers []cluster.PeerStatus `json:"peers"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	queued, cost := s.adm.snapshot()
	resp := healthzResponse{
		Status: "ok",
		Admission: healthAdmission{
			Queued:   queued,
			Limit:    s.adm.depth,
			Cost:     cost,
			Workers:  s.cfg.Workers,
			InFlight: s.inFlight.Value(),
		},
	}
	if s.cluster != nil {
		resp.Ring = &healthRing{
			Self:  s.cluster.Self(),
			Size:  len(s.cluster.Peers()),
			Peers: s.cluster.Health(),
		}
	}
	s.writeJSON(w, http.StatusOK, resp)
}
