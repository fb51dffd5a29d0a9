package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/plancache"
)

// Fill outcomes recorded in cachemapd_peer_fill_total{outcome} and on the
// cluster.fetch span.
const (
	// OutcomeHit: the owner answered with the plan.
	OutcomeHit = "hit"
	// OutcomeRefused: the owner answered, but not with a plan (overloaded:
	// 429/503/504, or a protocol mismatch). The caller computes locally.
	OutcomeRefused = "refused"
	// OutcomeTimeout: the fetch ran out of time (fill timeout or request
	// deadline).
	OutcomeTimeout = "timeout"
	// OutcomeError: transport failure — connection refused/reset, the
	// owner process is gone, or an injected cluster/fetch fault.
	OutcomeError = "error"
)

// FaultSite is the fault-injection site a peer fetch passes once, before
// it leaves the node (see FetchPlan's inject): latency rules delay the
// fetch, error rules fail it, and crash rules simulate the peer connection
// dropping mid-flight. Either failure kind makes the caller fall back to
// local compute.
const FaultSite = "cluster/fetch"

// Every Node's ring has RingVNodes virtual points per peer and places them
// with RingSeed. They are constants so that the members of a fleet cannot
// disagree on key owners: under different seeds they agree on none.
const (
	RingVNodes = 64
	RingSeed   = 1
)

// Config parameterizes a Node.
type Config struct {
	// Self is this node's address exactly as it appears in Peers.
	Self string
	// Peers are the fleet's addresses ("host:port" or full URLs); every
	// node must be configured with the same list for ownership to agree.
	Peers []string
	// FillTimeout bounds one peer-fill fetch, within the request deadline
	// (default 10s).
	FillTimeout time.Duration
	// Registry receives cachemapd_ring_peers and
	// cachemapd_peer_fill_total{outcome} (nil: metrics are dropped).
	Registry *metrics.Registry
}

// Node is one process's membership in the ring. Safe for concurrent use.
type Node struct {
	self        string
	ring        *Ring
	fillTimeout time.Duration
	client      *http.Client
	fills       *metrics.CounterVec

	mu    sync.Mutex
	peers map[string]*peerState
}

type peerState struct {
	attempts  uint64
	failures  uint64
	consec    uint64 // consecutive failures
	lastErr   string
	lastErrAt time.Time
}

// New validates cfg and builds the node. Self must appear in Peers.
func New(cfg Config) (*Node, error) {
	if cfg.FillTimeout <= 0 {
		cfg.FillTimeout = 10 * time.Second
	}
	ring, err := NewRing(cfg.Peers, RingVNodes, RingSeed)
	if err != nil {
		return nil, err
	}
	found := false
	for _, p := range cfg.Peers {
		if p == cfg.Self {
			found = true
			break
		}
	}
	if !found {
		return nil, fmt.Errorf("cluster: -self %q is not in the peer list %v", cfg.Self, cfg.Peers)
	}
	n := &Node{
		self:        cfg.Self,
		ring:        ring,
		fillTimeout: cfg.FillTimeout,
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConns:        32,
			MaxIdleConnsPerHost: 8,
			IdleConnTimeout:     90 * time.Second,
		}},
		peers: make(map[string]*peerState, len(cfg.Peers)),
	}
	for _, p := range cfg.Peers {
		if p != cfg.Self {
			n.peers[p] = &peerState{}
		}
	}
	if cfg.Registry != nil {
		cfg.Registry.GaugeFunc("cachemapd_ring_peers",
			"peers on the consistent-hash ring, including this node",
			func() float64 { return float64(len(cfg.Peers)) })
		n.fills = cfg.Registry.CounterVec("cachemapd_peer_fill_total",
			"peer-fill fetches from key owners, by outcome", "outcome")
	}
	return n, nil
}

// Self returns this node's ring address.
func (n *Node) Self() string { return n.self }

// Peers returns the ring's peers in declaration order.
func (n *Node) Peers() []string { return n.ring.Peers() }

// Owner resolves k's owner and whether it is this node.
func (n *Node) Owner(k plancache.Key) (addr string, self bool) {
	addr = n.ring.Owner(k)
	return addr, addr == n.self
}

// BaseURL renders a peer address as an HTTP base URL ("host:port" gets an
// http:// scheme; addresses that already carry one pass through).
func BaseURL(addr string) string {
	if strings.Contains(addr, "://") {
		return strings.TrimSuffix(addr, "/")
	}
	return "http://" + addr
}

// FetchPlan asks owner for the plan stored under key, posting the
// normalized request body so the owner can compute on a miss (its own
// singleflight makes that compute the fleet-wide one). The caller's trace
// context propagates via the traceparent header; the fetch runs under a
// cluster.fetch span and is bounded by min(ctx deadline, FillTimeout).
//
// inject, when non-nil, applies the faults armed at FaultSite before the
// fetch leaves the node. The server passes its own, which counts each
// firing in cachemapd_faults_injected_total like every other site. An
// error it returns fails the fetch: OutcomeTimeout if ctx ended,
// OutcomeError otherwise.
//
// On success the owner's response body (plan wire format v1) is returned
// with OutcomeHit. Every failure returns the outcome class alongside the
// error; the caller is expected to fall back to local compute.
func (n *Node) FetchPlan(ctx context.Context, owner string, key plancache.Key, body []byte, inject func(context.Context, string) error) (resp []byte, outcome string, err error) {
	fctx, span := obs.StartSpan(ctx, "cluster.fetch")
	if span != nil {
		span.SetAttr("peer", owner)
		span.SetAttr("key", key.String())
		defer func() {
			span.SetAttr("outcome", outcome)
			if err != nil {
				span.SetAttr("error", err.Error())
			}
			span.End()
		}()
	}
	resp, outcome, err = n.fetch(fctx, owner, key, body, inject)
	if n.fills != nil {
		n.fills.Inc(outcome)
	}
	n.recordHealth(owner, err)
	return resp, outcome, err
}

func (n *Node) fetch(ctx context.Context, owner string, key plancache.Key, body []byte, inject func(context.Context, string) error) ([]byte, string, error) {
	if inject != nil {
		if err := inject(ctx, FaultSite); err != nil {
			if ctx.Err() != nil {
				return nil, OutcomeTimeout, err
			}
			return nil, OutcomeError, err
		}
	}

	fctx, cancel := context.WithTimeout(ctx, n.fillTimeout)
	defer cancel()
	url := BaseURL(owner) + "/internal/plan/" + key.String()
	req, err := http.NewRequestWithContext(fctx, http.MethodPost, url, strings.NewReader(string(body)))
	if err != nil {
		return nil, OutcomeError, err
	}
	req.Header.Set("Content-Type", "application/json")
	if sp := obs.SpanFromContext(ctx); sp != nil {
		tc := obs.TraceContext{TraceID: sp.TraceID(), SpanID: sp.SpanID(), Sampled: true}
		req.Header.Set("traceparent", tc.TraceParent())
	}

	hresp, err := n.client.Do(req)
	if err != nil {
		if errors.Is(fctx.Err(), context.DeadlineExceeded) {
			return nil, OutcomeTimeout, err
		}
		return nil, OutcomeError, err
	}
	defer hresp.Body.Close()
	out, err := io.ReadAll(io.LimitReader(hresp.Body, 16<<20))
	if err != nil {
		return nil, OutcomeError, err
	}
	if hresp.StatusCode != http.StatusOK {
		return nil, OutcomeRefused, fmt.Errorf("cluster: owner %s refused fill: status %d: %s",
			owner, hresp.StatusCode, truncate(out, 160))
	}
	return out, OutcomeHit, nil
}

// debugFetchTimeout bounds one debug fan-out fetch (FetchDebug): debug
// views aggregate best-effort, so a slow peer is marked partial quickly
// instead of holding the whole fleet view to the fill timeout.
const debugFetchTimeout = 2 * time.Second

// FetchDebug GETs a debug path (e.g. "/debug/quality?local=1") from a
// peer, bounded by min(ctx deadline, debugFetchTimeout). The caller's
// trace context propagates via the traceparent header. Debug fetches are
// best-effort reads: they do not count toward peer fill health and are
// not fault-injected.
func (n *Node) FetchDebug(ctx context.Context, peer, path string) ([]byte, error) {
	fctx, cancel := context.WithTimeout(ctx, debugFetchTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(fctx, http.MethodGet, BaseURL(peer)+path, nil)
	if err != nil {
		return nil, err
	}
	if sp := obs.SpanFromContext(ctx); sp != nil {
		tc := obs.TraceContext{TraceID: sp.TraceID(), SpanID: sp.SpanID(), Sampled: true}
		req.Header.Set("traceparent", tc.TraceParent())
	}
	hresp, err := n.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer hresp.Body.Close()
	out, err := io.ReadAll(io.LimitReader(hresp.Body, 16<<20))
	if err != nil {
		return nil, err
	}
	if hresp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("cluster: peer %s: debug %s: status %d: %s",
			peer, path, hresp.StatusCode, truncate(out, 160))
	}
	return out, nil
}

// recordHealth folds one fetch result into the peer's reachability state.
func (n *Node) recordHealth(owner string, err error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	ps := n.peers[owner]
	if ps == nil {
		return
	}
	ps.attempts++
	if err == nil {
		ps.consec = 0
		return
	}
	ps.failures++
	ps.consec++
	ps.lastErr = err.Error()
	ps.lastErrAt = time.Now()
}

// PeerStatus is the observable reachability of one peer, as reported in
// /healthz. State is "self", "untried" (never contacted), "ok" (last
// contact succeeded) or "down" (last contact failed).
type PeerStatus struct {
	Addr  string `json:"addr"`
	State string `json:"state"`
	// Attempts and Failures count fill fetches to this peer.
	Attempts uint64 `json:"attempts"`
	Failures uint64 `json:"failures"`
	// ConsecutiveFailures counts the current unbroken failure run; 0 when
	// the last contact succeeded.
	ConsecutiveFailures uint64 `json:"consecutive_failures,omitempty"`
	// LastError and LastErrorAgeMS describe the most recent failure, so an
	// orchestrator can tell a fresh outage from ancient history.
	LastError      string  `json:"last_error,omitempty"`
	LastErrorAgeMS float64 `json:"last_error_age_ms,omitempty"`
}

// Health snapshots every ring member's reachability, self first, then
// peers in address order.
func (n *Node) Health() []PeerStatus {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := []PeerStatus{{Addr: n.self, State: "self"}}
	addrs := make([]string, 0, len(n.peers))
	for a := range n.peers {
		addrs = append(addrs, a)
	}
	sort.Strings(addrs)
	for _, a := range addrs {
		ps := n.peers[a]
		st := PeerStatus{
			Addr:                a,
			Attempts:            ps.attempts,
			Failures:            ps.failures,
			ConsecutiveFailures: ps.consec,
			LastError:           ps.lastErr,
		}
		switch {
		case ps.attempts == 0:
			st.State = "untried"
		case ps.consec > 0:
			st.State = "down"
		default:
			st.State = "ok"
		}
		if !ps.lastErrAt.IsZero() {
			st.LastErrorAgeMS = float64(time.Since(ps.lastErrAt)) / float64(time.Millisecond)
		}
		out = append(out, st)
	}
	return out
}

func truncate(b []byte, n int) string {
	if len(b) <= n {
		return string(b)
	}
	return string(b[:n]) + "…"
}
