package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/mapping"
	"repro/internal/metrics"
)

// testRing boots n in-process servers joined into one ring. Each server
// gets its own registry so per-node counters stay distinguishable.
type testRing struct {
	addrs   []string
	servers []*Server
	https   []*httptest.Server
}

func newTestRing(t *testing.T, n int, mutate func(i int, cfg *Config)) *testRing {
	t.Helper()
	r := &testRing{}
	// Unstarted servers hand out their listen address before serving, so
	// every node can know the full peer list up front.
	for i := 0; i < n; i++ {
		ts := httptest.NewUnstartedServer(nil)
		r.https = append(r.https, ts)
		r.addrs = append(r.addrs, ts.Listener.Addr().String())
	}
	for i := 0; i < n; i++ {
		node, err := cluster.New(cluster.Config{
			Self:        r.addrs[i],
			Peers:       r.addrs,
			FillTimeout: 5 * time.Second,
			Registry:    metrics.NewRegistry(),
		})
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{Cluster: node, Workers: 4}
		if mutate != nil {
			mutate(i, &cfg)
		}
		s := newTestServer(t, cfg)
		r.servers = append(r.servers, s)
		r.https[i].Config.Handler = s.Handler()
		r.https[i].Start()
	}
	t.Cleanup(func() {
		for _, ts := range r.https {
			ts.Close()
		}
	})
	return r
}

// ownerOf resolves the ring index owning req's plan key.
func (r *testRing) ownerOf(t *testing.T, req MapRequest) int {
	t.Helper()
	key, err := PlanKey(req)
	if err != nil {
		t.Fatal(err)
	}
	owner, _ := r.servers[0].cluster.Owner(key)
	for i, a := range r.addrs {
		if a == owner {
			return i
		}
	}
	t.Fatalf("owner %q not in ring %v", owner, r.addrs)
	return -1
}

func (r *testRing) post(t *testing.T, i int, req MapRequest) (*http.Response, MapResponse, []byte) {
	t.Helper()
	b, _ := json.Marshal(req)
	resp, err := http.Post(r.https[i].URL+"/v1/map", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var mr MapResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(body, &mr); err != nil {
			t.Fatalf("decoding %s: %v", body, err)
		}
	}
	return resp, mr, body
}

// rawPlan returns the "plan" member of a /v1/map body as it was sent.
func rawPlan(t *testing.T, body []byte) json.RawMessage {
	t.Helper()
	var v struct {
		Plan json.RawMessage `json:"plan"`
	}
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatalf("decoding %s: %v", body, err)
	}
	return v.Plan
}

// computesOf reads one node's cachemapd_pipeline_computes_total.
func computesOf(s *Server) int64 { return s.computes.Value() }

func TestClusterPeerFill(t *testing.T) {
	r := newTestRing(t, 3, nil)
	req := synthReq(96)
	owner := r.ownerOf(t, req)
	requester := (owner + 1) % 3

	resp, mr, body := r.post(t, requester, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if mr.FilledFrom != r.addrs[owner] {
		t.Fatalf("filled_from = %q, want owner %q", mr.FilledFrom, r.addrs[owner])
	}
	if mr.Cached {
		t.Fatal("first fill reported cached=true on the requester")
	}
	if got := computesOf(r.servers[owner]); got != 1 {
		t.Fatalf("owner ran %d computes, want 1", got)
	}
	if got := computesOf(r.servers[requester]); got != 0 {
		t.Fatalf("requester computed locally (%d) despite a live owner", got)
	}

	// The owner served it from its own pipeline, so its copy is local.
	respO, mrO, bodyO := r.post(t, owner, req)
	if respO.StatusCode != http.StatusOK || !mrO.Cached || mrO.FilledFrom != "" {
		t.Fatalf("owner self-serve: %d cached=%v filled_from=%q: %s",
			respO.StatusCode, mrO.Cached, mrO.FilledFrom, bodyO)
	}

	// Acceptance: plan bytes identical whether peer-filled or served by
	// the owner, and a third replica's fill matches too.
	planFilled, _ := json.Marshal(mr.Plan)
	planOwner, _ := json.Marshal(mrO.Plan)
	if !bytes.Equal(planFilled, planOwner) {
		t.Fatalf("peer-filled plan differs from the owner's:\n%s\nvs\n%s", planFilled, planOwner)
	}
	_, mr3, body3 := r.post(t, (owner+2)%3, req)
	plan3, _ := json.Marshal(mr3.Plan)
	if !bytes.Equal(planFilled, plan3) || mr3.CacheKey != mr.CacheKey {
		t.Fatalf("third node's plan diverged: key %q vs %q", mr3.CacheKey, mr.CacheKey)
	}
	// The bodies carry the plan bytes as each node holds them: the owner's
	// written by mapping.AppendJSON, the fillers' re-encoded by the fill
	// check's json.Marshal. Both encoders must give the same bytes.
	rawOwner := rawPlan(t, bodyO)
	for _, b := range [][]byte{body, body3} {
		if raw := rawPlan(t, b); !bytes.Equal(raw, rawOwner) {
			t.Fatalf("peer-filled plan bytes differ from the owner's:\n%.300s\nvs\n%.300s", raw, rawOwner)
		}
	}

	// Second request on the requester: local cache hit, provenance kept.
	_, mr2, _ := r.post(t, requester, req)
	if !mr2.Cached || mr2.FilledFrom != r.addrs[owner] {
		t.Fatalf("refetch: cached=%v filled_from=%q", mr2.Cached, mr2.FilledFrom)
	}
	if got := computesOf(r.servers[owner]); got != 1 {
		t.Fatalf("owner recomputed: %d computes", got)
	}
}

func TestClusterSingleflightFleetWide(t *testing.T) {
	// A slow-enough pipeline job hit concurrently through all three nodes
	// must run exactly once fleet-wide: each node's local singleflight
	// collapses its own callers, the two non-owners fill from the owner,
	// and the owner's singleflight collapses those fills with its own.
	started := make(chan struct{})
	var once sync.Once
	r := newTestRing(t, 3, func(i int, cfg *Config) {
		cfg.RequestTimeout = 60 * time.Second
	})
	req := synthReq(2048) // big enough that the computation overlaps the burst
	owner := r.ownerOf(t, req)
	r.servers[owner].onJobStart = func() { once.Do(func() { close(started) }) }

	const perNode = 4
	var wg sync.WaitGroup
	errs := make(chan string, 3*perNode)
	for i := 0; i < 3; i++ {
		for c := 0; c < perNode; c++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				resp, _, body := r.post(t, i, req)
				if resp.StatusCode != http.StatusOK {
					errs <- string(body)
				}
			}(i)
		}
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatalf("burst request failed: %s", e)
	}
	select {
	case <-started:
	default:
		t.Fatal("owner never started a pipeline job")
	}
	var total int64
	for i, s := range r.servers {
		n := computesOf(s)
		total += n
		if i != owner && n != 0 {
			t.Errorf("non-owner %d computed %d times", i, n)
		}
	}
	if total != 1 {
		t.Fatalf("fleet ran %d pipeline computes for one key, want exactly 1", total)
	}
}

func TestClusterOwnerDownFallsBackToLocalCompute(t *testing.T) {
	r := newTestRing(t, 3, nil)
	req := synthReq(128)
	owner := r.ownerOf(t, req)
	requester := (owner + 1) % 3

	// Kill the owner before anyone has the plan.
	r.https[owner].Close()

	resp, mr, body := r.post(t, requester, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("dead owner: status %d: %s", resp.StatusCode, body)
	}
	if mr.FilledFrom != "" || mr.Degraded != "" {
		t.Fatalf("local fallback mislabeled: filled_from=%q degraded=%q", mr.FilledFrom, mr.Degraded)
	}
	if got := computesOf(r.servers[requester]); got != 1 {
		t.Fatalf("requester computes = %d, want 1 (local fallback)", got)
	}

	// The failed fetch must be visible in peer health.
	var down bool
	for _, ps := range r.servers[requester].cluster.Health() {
		if ps.Addr == r.addrs[owner] && ps.State == "down" && ps.LastError != "" {
			down = true
		}
	}
	if !down {
		t.Fatalf("owner not marked down in health: %+v", r.servers[requester].cluster.Health())
	}
}

func TestClusterInternalPlanEndpoint(t *testing.T) {
	r := newTestRing(t, 3, nil)
	req := synthReq(64)
	key, err := PlanKey(req)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := json.Marshal(req)

	// Any node serves the internal protocol for any key it is asked for.
	resp, err := http.Post(r.https[0].URL+"/internal/plan/"+key.String(), "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("internal fill: %d: %s", resp.StatusCode, body)
	}
	var fr fillResponse
	if err := json.Unmarshal(body, &fr); err != nil {
		t.Fatal(err)
	}
	if fr.CacheKey != key.String() || fr.Node != r.addrs[0] || fr.Cached {
		t.Fatalf("fill response = key %q node %q cached %v", fr.CacheKey, fr.Node, fr.Cached)
	}

	// A path key that does not match the body is a protocol-skew guard.
	wrong := strings.Repeat("0", 64)
	resp, err = http.Post(r.https[0].URL+"/internal/plan/"+wrong, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("key mismatch accepted: %d", resp.StatusCode)
	}

	// Unclustered servers refuse the protocol outright.
	solo := httptest.NewServer(newTestServer(t, Config{}).Handler())
	defer solo.Close()
	resp, err = http.Post(solo.URL+"/internal/plan/"+key.String(), "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unclustered internal fill: %d, want 404", resp.StatusCode)
	}
}

func TestClusterFillReplicatesStaleTier(t *testing.T) {
	// A peer fill must land in the requester's stale tier so the requester
	// can serve the workload degraded once the owner is gone.
	r := newTestRing(t, 3, func(i int, cfg *Config) {
		cfg.Degraded = true
	})
	req := synthReq(96)
	owner := r.ownerOf(t, req)
	requester := (owner + 1) % 3

	if resp, mr, body := r.post(t, requester, req); resp.StatusCode != http.StatusOK || mr.FilledFrom == "" {
		t.Fatalf("priming fill failed: %d %s", resp.StatusCode, body)
	}
	j, err := buildJob(req)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, ok := r.servers[requester].stale.Get(j.wkKey, j.topoSig, 0); !ok {
		t.Fatal("requester stale tier holds no entry for the workload after a fill")
	}
}

func TestClusterHealthzReportsRing(t *testing.T) {
	r := newTestRing(t, 3, nil)
	resp, err := http.Get(r.https[0].URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var hz healthzResponse
	if err := json.Unmarshal(body, &hz); err != nil {
		t.Fatalf("healthz: %v: %s", err, body)
	}
	if hz.Ring == nil || hz.Ring.Self != r.addrs[0] || hz.Ring.Size != 3 || len(hz.Ring.Peers) != 3 {
		t.Fatalf("ring health block = %s", body)
	}
	if hz.Ring.Peers[0].State != "self" {
		t.Fatalf("first peer status should be self: %+v", hz.Ring.Peers)
	}
}

// TestPeerFillRejectsBadPlan: an owner that answers with a plan for the
// wrong client count, or with overlapping runs, is refused by the fill
// check. The requester counts the reject, computes the plan itself, and
// serves and caches that plan, not the owner's. The same owner answering
// honestly is accepted.
func TestPeerFillRejectsBadPlan(t *testing.T) {
	for _, tc := range []struct {
		name    string
		corrupt func(p *mapping.Plan) // nil: answer honestly
	}{
		{"Honest", nil},
		{"WrongClientCount", func(p *mapping.Plan) {
			p.Work = p.Work[:len(p.Work)-1]
			p.Clients--
		}},
		{"OverlappingRuns", func(p *mapping.Plan) {
			// Client 0 also runs client 1's first block; the declared total
			// grows to match, so only the overlap gives it away.
			p.Work[0] = append(slices.Clip(p.Work[0]), p.Work[1][0])
			for _, r := range p.Work[1][0].Runs {
				p.TotalIterations += r[1] - r[0]
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			honest := newTestServer(t, Config{})
			owner := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				var req MapRequest
				if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
					t.Error(err)
					return
				}
				mr, err := honest.ComputePlan(req)
				if err != nil {
					t.Error(err)
					return
				}
				plan := mr.Plan
				if tc.corrupt != nil {
					plan.Work = slices.Clone(plan.Work)
					tc.corrupt(&plan)
				}
				key := strings.TrimPrefix(r.URL.Path, "/internal/plan/")
				json.NewEncoder(w).Encode(fillResponse{Plan: plan, Stages: mr.Stages, CacheKey: key, Node: r.Host})
			}))
			defer owner.Close()
			// A two-member ring whose other member is the lying owner; the
			// requester never dials its own address.
			const self = "127.0.0.1:1"
			node, err := cluster.New(cluster.Config{Self: self, Peers: []string{self, owner.URL}, Registry: metrics.NewRegistry()})
			if err != nil {
				t.Fatal(err)
			}
			s := newTestServer(t, Config{Cluster: node})
			ts := httptest.NewServer(s.Handler())
			defer ts.Close()

			req := synthReq(64)
			for ext := int64(65); ; ext++ {
				key, err := PlanKey(req)
				if err != nil {
					t.Fatal(err)
				}
				if _, mine := node.Owner(key); !mine {
					break
				}
				req = synthReq(ext)
			}
			resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/map", req)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status %d: %s", resp.StatusCode, body)
			}
			var mr MapResponse
			if err := json.Unmarshal(body, &mr); err != nil {
				t.Fatal(err)
			}
			wantFilled, wantRejects, wantComputes := owner.URL, int64(0), int64(0)
			if tc.corrupt != nil {
				wantFilled, wantRejects, wantComputes = "", 1, 1
			}
			if mr.FilledFrom != wantFilled {
				t.Fatalf("filled_from %q, want %q", mr.FilledFrom, wantFilled)
			}
			if got := s.fillRejects.Value(); got != wantRejects {
				t.Fatalf("fill rejects = %d, want %d", got, wantRejects)
			}
			if got := s.computes.Value(); got != wantComputes {
				t.Fatalf("computes = %d, want %d", got, wantComputes)
			}
			want, err := honest.ComputePlan(req)
			if err != nil {
				t.Fatal(err)
			}
			gb, _ := json.Marshal(mr.Plan)
			wb, _ := json.Marshal(want.Plan)
			if !bytes.Equal(gb, wb) {
				t.Fatalf("served plan is not the local compute:\n%s\nvs\n%s", gb, wb)
			}
		})
	}
}
