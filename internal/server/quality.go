package server

// GET /debug/quality: the plan-quality ledger as JSON. Standalone, the
// response is this node's view — sampler counters, plan-cache hit ratio
// and the per-family per-mode shadow-simulation ledger. On a ring the
// handler additionally fans out to every peer (?local=1 suppresses the
// recursion), traceparent-propagated and timeout-bounded, and renders one
// fleet-wide quality table; unreachable peers are marked and the response
// flagged partial rather than failed.

import (
	"context"
	"encoding/json"
	"net/http"

	"repro/internal/quality"
)

// qualityNode is one node's slice of the quality view.
type qualityNode struct {
	// Node is the ring address ("" standalone).
	Node string `json:"node,omitempty"`
	// SampleRate is the node's configured shadow-sampling fraction.
	SampleRate float64 `json:"sample_rate"`
	// Sampler carries the sampling decision counters.
	Sampler quality.Counts `json:"sampler"`
	// PlanCache reports the node's plan-cache hit ratio alongside the
	// quality ledger, so hit-rate and plan-quality read off one table.
	PlanCache qualityCacheStats `json:"plan_cache"`
	// Ledger is the node's per-family, per-serve-mode quality ledger.
	Ledger quality.Snapshot `json:"ledger"`
	// Error marks a peer whose view could not be fetched (fleet view only).
	Error string `json:"error,omitempty"`
}

type qualityCacheStats struct {
	Hits     int64   `json:"hits"`
	Misses   int64   `json:"misses"`
	HitRatio float64 `json:"hit_ratio"`
}

// qualityResponse is the body of GET /debug/quality: this node's view,
// plus — on a ring, unless ?local=1 — every member's.
type qualityResponse struct {
	qualityNode
	// Fleet lists each ring member's local view, self first.
	Fleet []qualityNode `json:"fleet,omitempty"`
	// Partial marks a fleet view missing at least one peer.
	Partial bool `json:"partial,omitempty"`
}

// localQuality snapshots this node's quality view.
func (s *Server) localQuality() qualityNode {
	n := qualityNode{
		SampleRate: s.cfg.QualitySampleRate,
		Sampler:    s.sampler.Counts(),
		Ledger:     s.sampler.Ledger().Snapshot(),
	}
	if s.cluster != nil {
		n.Node = s.cluster.Self()
	}
	st := s.cache.Stats()
	n.PlanCache = qualityCacheStats{Hits: st.Hits, Misses: st.Misses}
	if total := st.Hits + st.Misses; total > 0 {
		n.PlanCache.HitRatio = float64(st.Hits) / float64(total)
	}
	return n
}

// handleQuality serves GET /debug/quality. It runs through the shared
// request scaffold, so the fan-out below propagates this request's trace
// context to every peer via traceparent.
func (s *Server) handleQuality(w http.ResponseWriter, r *http.Request) {
	localOnly := r.URL.Query().Get("local") != ""
	s.serve(w, r, func(ctx context.Context, _ []byte) (any, error) {
		resp := qualityResponse{qualityNode: s.localQuality()}
		if s.cluster == nil || localOnly {
			return resp, nil
		}
		resp.Fleet = append(resp.Fleet, resp.qualityNode)
		for _, peer := range s.cluster.Peers() {
			if peer == s.cluster.Self() {
				continue
			}
			pv := qualityNode{Node: peer}
			body, err := s.cluster.FetchDebug(ctx, peer, "/debug/quality?local=1")
			if err != nil {
				pv.Error = err.Error()
				resp.Partial = true
			} else {
				var pr qualityResponse
				if err := json.Unmarshal(body, &pr); err != nil {
					pv.Error = err.Error()
					resp.Partial = true
				} else {
					pv = pr.qualityNode
					pv.Node = peer
				}
			}
			resp.Fleet = append(resp.Fleet, pv)
		}
		return resp, nil
	})
}
