package server

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// metricValue extracts one sample (optionally labeled) from the metrics
// exposition.
func metricValue(t *testing.T, ts *httptest.Server, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(metricsText(t, ts), "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err != nil {
				t.Fatalf("parse %s: %v", name, err)
			}
			return v
		}
	}
	return 0
}

// TestRepairFastPath: with the repair fast-path on, a request whose
// workload has a cached clustering under a near-identical topology is
// answered by incremental re-planning — balance/schedule/encode only — and
// says so in the response and the replan counter.
func TestRepairFastPath(t *testing.T) {
	s := newTestServer(t, Config{Repair: RepairConfig{Enabled: true}})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Prime: full compute under topology A.
	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/map", synthReq(128))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("prime: status %d: %s", resp.StatusCode, body)
	}
	var primed MapResponse
	if err := json.Unmarshal(body, &primed); err != nil {
		t.Fatal(err)
	}
	if primed.Replanned != ReplanFull {
		t.Fatalf("prime replanned = %q, want %q", primed.Replanned, ReplanFull)
	}
	if len(primed.ReusedStages) != 0 {
		t.Fatalf("full compute claims reused stages: %v", primed.ReusedStages)
	}

	// Same workload, leaf cache capacity drifted within tolerance: repair.
	req := synthReq(128)
	req.Topology = "1/2/4@16,8,5"
	resp, body = postJSON(t, ts.Client(), ts.URL+"/v1/map", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("repair: status %d: %s", resp.StatusCode, body)
	}
	var mr MapResponse
	if err := json.Unmarshal(body, &mr); err != nil {
		t.Fatal(err)
	}
	if mr.Replanned != ReplanIncremental {
		t.Fatalf("replanned = %q, want %q (%s)", mr.Replanned, ReplanIncremental, body)
	}
	if mr.Cached || mr.Degraded != "" {
		t.Fatalf("repair response mislabeled: %+v", mr)
	}
	if mr.CacheKey == primed.CacheKey {
		t.Fatal("repaired plan shares the ancestor's cache key")
	}
	want := []string{"tags", "chunks", "similarity", "cluster"}
	if len(mr.ReusedStages) != len(want) {
		t.Fatalf("reused_stages = %v, want %v", mr.ReusedStages, want)
	}
	for i, st := range want {
		if mr.ReusedStages[i] != st {
			t.Fatalf("reused_stages = %v, want %v", mr.ReusedStages, want)
		}
	}
	ran := map[string]bool{}
	for _, st := range mr.Stages {
		ran[st.Stage] = true
	}
	if ran["tags"] || ran["similarity"] || !ran["balance"] || !ran["encode"] {
		t.Fatalf("repair stage breakdown wrong: %+v", mr.Stages)
	}

	// The drifted topology has the same tree structure (node counts), and
	// clustering keys on structure alone — so the repaired plan must be
	// byte-identical to what a full compute for the same spec produces.
	fresh := newTestServer(t, Config{})
	full, err := fresh.ComputePlan(req)
	if err != nil {
		t.Fatal(err)
	}
	gb, _ := json.Marshal(mr.Plan)
	wb, _ := json.Marshal(full.Plan)
	if string(gb) != string(wb) {
		t.Fatalf("repaired plan differs from full compute:\n%s\nvs\n%s", gb, wb)
	}

	// Counters: one full production, one incremental, tags ran once.
	if got := metricValue(t, ts, "cachemapd_pipeline_computes_total"); got != 1 {
		t.Errorf("pipeline_computes_total = %v, want 1", got)
	}
	if got := metricValue(t, ts, `cachemapd_replan_total{outcome="incremental"}`); got != 1 {
		t.Errorf("replan_total{incremental} = %v, want 1", got)
	}
	if got := metricValue(t, ts, `cachemapd_stage_duration_seconds_count{stage="tags"}`); got != 1 {
		t.Errorf("stage_duration_seconds_count{tags} = %v, want 1", got)
	}
	if got := metricValue(t, ts, `cachemapd_stage_duration_seconds_count{stage="balance"}`); got != 2 {
		t.Errorf("stage_duration_seconds_count{balance} = %v, want 2", got)
	}
	if got := metricValue(t, ts, "cachemapd_repair_lookup_hits_total"); got != 1 {
		t.Errorf("repair_lookup_hits_total = %v, want 1", got)
	}

	// Repaired plans are cached like any other: the same spec again is a
	// plain hit that keeps its incremental provenance.
	resp, body = postJSON(t, ts.Client(), ts.URL+"/v1/map", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("re-request: %d %s", resp.StatusCode, body)
	}
	var again MapResponse
	if err := json.Unmarshal(body, &again); err != nil {
		t.Fatal(err)
	}
	if !again.Cached || again.Replanned != ReplanIncremental {
		t.Fatalf("cached repair lost provenance: %+v", again)
	}
}

// TestRepairOffByDefault: without the switch, a drifted near-miss runs the
// full pipeline — byte-exact serving stays the default contract.
func TestRepairOffByDefault(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	postJSON(t, ts.Client(), ts.URL+"/v1/map", synthReq(128))
	req := synthReq(128)
	req.Topology = "1/2/4@16,8,5"
	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/map", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var mr MapResponse
	if err := json.Unmarshal(body, &mr); err != nil {
		t.Fatal(err)
	}
	if mr.Replanned != ReplanFull || len(mr.ReusedStages) != 0 {
		t.Fatalf("repair ran with the switch off: %+v", mr)
	}
	if s.replans.With(ReplanIncremental).Value() != 0 {
		t.Error("incremental counter advanced with repair disabled")
	}
}

// TestRepairBeyondToleranceFullCompute: drift past the tolerance must not
// repair — the clustering would be a poor fit — and falls through to the
// full pipeline.
func TestRepairBeyondToleranceFullCompute(t *testing.T) {
	s := newTestServer(t, Config{Repair: RepairConfig{Enabled: true, Tolerance: 0.1}})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	postJSON(t, ts.Client(), ts.URL+"/v1/map", synthReq(128))
	req := synthReq(128)
	req.Topology = "1/4/16@16,8,4" // 4× the clients: far outside 10%
	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/map", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var mr MapResponse
	if err := json.Unmarshal(body, &mr); err != nil {
		t.Fatal(err)
	}
	if mr.Replanned != ReplanFull {
		t.Fatalf("replanned = %q, want full", mr.Replanned)
	}
	// Two misses: the prime's own lookup against the empty tier, then the
	// far-drift rejection.
	if hits, misses := s.repairHits.Value(), s.repairMisses.Value(); hits != 0 || misses != 2 {
		t.Errorf("repair stats = %d/%d, want 0 hits / 2 misses", hits, misses)
	}
	// Repair lookups count under their own metrics, not the degraded ones.
	if hits, misses := s.degraded.With(DegradedStale).Value(), s.staleMisses.Value(); hits != 0 || misses != 0 {
		t.Errorf("stale-tier stats = %d/%d after repair lookups only, want 0/0", hits, misses)
	}
}

// TestRepairSchemeGate: non-resumable schemes (and dependence-aware modes)
// never repair, even when a resumable clustering for the workload exists.
func TestRepairSchemeGate(t *testing.T) {
	s := newTestServer(t, Config{Repair: RepairConfig{Enabled: true}})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	postJSON(t, ts.Client(), ts.URL+"/v1/map", synthReq(128))

	orig := synthReq(128)
	orig.Topology = "1/2/4@16,8,5"
	orig.Scheme = "original"
	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/map", orig)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var mr MapResponse
	if err := json.Unmarshal(body, &mr); err != nil {
		t.Fatal(err)
	}
	if mr.Replanned != ReplanFull {
		t.Fatalf("original scheme repaired: %+v", mr)
	}

	dep := synthReq(128)
	dep.Topology = "1/2/4@16,8,5"
	dep.DepMode = "sync"
	resp, body = postJSON(t, ts.Client(), ts.URL+"/v1/map", dep)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &mr); err != nil {
		t.Fatal(err)
	}
	if mr.Replanned != ReplanFull {
		t.Fatalf("dependence-aware request repaired: %+v", mr)
	}
}

// batchOf builds a batch body from specs.
func batchOf(reqs ...MapRequest) BatchMapRequest {
	return BatchMapRequest{Requests: reqs}
}

// TestBatchSharedFamily: a batch of 8 same-workload specs under drifting
// topologies runs the expensive pipeline prefix exactly once — one full
// compute, 7 incremental repairs — regardless of the server-wide repair
// switch.
func TestBatchSharedFamily(t *testing.T) {
	s := newTestServer(t, Config{Workers: 4})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	topos := []string{
		"2/4/8@16,8,4", // leader
		"2/4/8@16,8,5",
		"2/4/8@16,8,3",
		"2/4/8@16,9,4",
		"2/4/8@16,7,4",
		"2/4/8@14,8,4",
		"2/4/10@16,8,4", // structural drift: 10 clients
		"2/4/8@16,8,4",  // duplicate of the leader: plain cache hit
	}
	var reqs []MapRequest
	for _, topo := range topos {
		r := synthReq(256)
		r.Topology = topo
		reqs = append(reqs, r)
	}
	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/map/batch", batchOf(reqs...))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var br BatchMapResponse
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatal(err)
	}
	if len(br.Results) != 8 {
		t.Fatalf("%d results, want 8", len(br.Results))
	}
	if br.Families != 1 {
		t.Fatalf("families = %d, want 1", br.Families)
	}
	if br.Errors != 0 {
		t.Fatalf("errors = %d: %s", br.Errors, body)
	}
	if br.Full != 1 || br.Incremental != 6 || br.CachedN != 1 {
		t.Fatalf("mix full/incremental/cached = %d/%d/%d, want 1/6/1 (%s)",
			br.Full, br.Incremental, br.CachedN, body)
	}
	// Result order matches request order; every entry is a valid plan for
	// its own topology.
	for i, r := range br.Results {
		if r.MapResponse == nil {
			t.Fatalf("result %d missing", i)
		}
		wantClients := 8
		if i == 6 {
			wantClients = 10
		}
		if r.Plan.Clients != wantClients {
			t.Fatalf("result %d: %d clients, want %d", i, r.Plan.Clients, wantClients)
		}
		if _, err := r.Plan.Assignment(); err != nil {
			t.Fatalf("result %d: invalid plan: %v", i, err)
		}
	}
	if br.Results[7].CacheKey != br.Results[0].CacheKey || !br.Results[7].Cached {
		t.Fatal("duplicate spec did not hit the leader's cache entry")
	}

	// The acceptance assertion: tags (and the rest of the prefix) ran once.
	for _, stage := range []string{"tags", "chunks", "similarity", "cluster"} {
		if got := metricValue(t, ts, `cachemapd_stage_duration_seconds_count{stage="`+stage+`"}`); got != 1 {
			t.Errorf("stage_duration_seconds_count{%s} = %v, want 1", stage, got)
		}
	}
	if got := metricValue(t, ts, `cachemapd_requests_total{route="/v1/map/batch"}`); got != 1 {
		t.Errorf(`requests_total{route="/v1/map/batch"} = %v, want 1`, got)
	}
	if got := metricValue(t, ts, "cachemapd_batch_specs_total"); got != 8 {
		t.Errorf("batch_specs_total = %v, want 8", got)
	}
	if got := metricValue(t, ts, `cachemapd_replan_total{outcome="incremental"}`); got != 6 {
		t.Errorf("replan_total{incremental} = %v, want 6", got)
	}
}

// TestBatchMixedFamilies: two workload families in one batch stay
// independent — each runs its own full compute and repairs its own
// siblings.
func TestBatchMixedFamilies(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	a1, a2 := synthReq(128), synthReq(128)
	a2.Topology = "1/2/4@16,8,5"
	b1, b2 := synthReq(192), synthReq(192)
	b2.Topology = "1/2/4@16,8,5"
	// Interleaved on purpose: grouping is by family, not adjacency.
	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/map/batch", batchOf(a1, b1, a2, b2))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var br BatchMapResponse
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatal(err)
	}
	if br.Families != 2 || br.Full != 2 || br.Incremental != 2 || br.Errors != 0 {
		t.Fatalf("families/full/incremental/errors = %d/%d/%d/%d, want 2/2/2/0 (%s)",
			br.Families, br.Full, br.Incremental, br.Errors, body)
	}
	if got := metricValue(t, ts, `cachemapd_stage_duration_seconds_count{stage="tags"}`); got != 2 {
		t.Errorf("stage_duration_seconds_count{tags} = %v, want 2", got)
	}
	if br.Results[0].Plan.TotalIterations != 2*128 || br.Results[1].Plan.TotalIterations != 2*192 {
		t.Fatal("results not aligned with request order")
	}
}

// TestBatchValidation: malformed bodies and bad specs fail the whole batch
// with 400 and a per-spec index in the error.
func TestBatchValidation(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/map/batch", batchOf())
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty batch: status %d: %s", resp.StatusCode, body)
	}

	bad := synthReq(64)
	bad.Topology = "not-a-topology"
	resp, body = postJSON(t, ts.Client(), ts.URL+"/v1/map/batch", batchOf(synthReq(64), bad))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad spec: status %d: %s", resp.StatusCode, body)
	}
	var er errorResponse
	if err := json.Unmarshal(body, &er); err != nil || !strings.Contains(er.Error, "requests[1]:") {
		t.Fatalf("error does not name the offending spec: %s", body)
	}

	over := make([]MapRequest, maxBatchSpecs+1)
	for i := range over {
		over[i] = synthReq(64)
	}
	resp, body = postJSON(t, ts.Client(), ts.URL+"/v1/map/batch", batchOf(over...))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized batch: status %d: %s", resp.StatusCode, body)
	}
}

// TestBatchShedNeverReachesWorker mirrors the single-request shed test for
// the batch endpoint: a batch shed at admission gets one 429 with a
// per-batch Retry-After, runs no job function, and leaves no goroutines.
func TestBatchShedNeverReachesWorker(t *testing.T) {
	var jobs atomic.Int64
	s := newTestServer(t, Config{Workers: 1, AdmissionQueueDepth: -1})
	release := make(chan struct{})
	started := make(chan struct{}, 1)
	first := make(chan struct{}, 1)
	s.onJobStart = func() {
		jobs.Add(1)
		select {
		case first <- struct{}{}: // only the parked job blocks
			started <- struct{}{}
			<-release
		default:
		}
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		postJSON(t, ts.Client(), ts.URL+"/v1/map", synthReq(4096))
	}()
	<-started

	before := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		batch := batchOf(synthReq(int64(100+i)), synthReq(int64(200+i)))
		resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/map/batch", batch)
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("batch %d: status %d, want 429: %s", i, resp.StatusCode, body)
		}
		ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
		if err != nil || ra < 1 {
			t.Fatalf("batch %d: Retry-After %q, want an integer >= 1", i, resp.Header.Get("Retry-After"))
		}
	}
	if got := jobs.Load(); got != 1 {
		t.Fatalf("job fn ran %d times, want 1 (shed batches reached the pool)", got)
	}
	const slack = 10
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before+slack {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines grew from %d to %d after 20 shed batches",
				before, runtime.NumGoroutine())
		}
		time.Sleep(5 * time.Millisecond)
	}

	close(release)
	wg.Wait()
}

// TestBatchAggregateCost: the batch's admission cost is the sum of its
// specs' costs — with the queue already occupied, a batch whose aggregate
// blows the cost budget is shed even though each spec alone would fit.
func TestBatchAggregateCost(t *testing.T) {
	// One spec of extent 64 costs 2*64 iterations × 7 nodes = 896; budget
	// 2000 fits one queued single (896 + 896) but not a 2-spec batch
	// (896 + 1806).
	_, ts, park := overloadServer(t, Config{
		AdmissionQueueDepth: 8,
		AdmissionQueueCost:  2000,
	})
	unpark := park()
	defer unpark()

	// First waiter occupies 896 of the budget (it will 503 on its own
	// deadline; fire and forget).
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		postJSON(t, ts.Client(), ts.URL+"/v1/map", synthReq(64))
	}()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if q, _ := tsServerAdm(ts, t); q >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("first waiter never queued")
		}
		time.Sleep(2 * time.Millisecond)
	}

	specs := []MapRequest{synthReq(65), synthReq(66)}
	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/map/batch", batchOf(specs...))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429 (aggregate cost over budget): %s", resp.StatusCode, body)
	}
	unpark()
	wg.Wait()

	// With the worker free the same batch runs fine.
	resp, body = postJSON(t, ts.Client(), ts.URL+"/v1/map/batch", batchOf(specs...))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d after unpark: %s", resp.StatusCode, body)
	}
}

// TestRepairedPlanCarriesNoState: a repaired plan never anchors the stale
// tier, so its cache entry keeps no resumable clustering, and the next
// near miss still repairs from the full compute's anchor.
func TestRepairedPlanCarriesNoState(t *testing.T) {
	s := newTestServer(t, Config{Repair: RepairConfig{Enabled: true}})
	if _, err := s.ComputePlan(synthReq(128)); err != nil {
		t.Fatal(err)
	}
	for i, topo := range []string{"1/2/4@16,8,5", "1/2/4@16,7,4"} {
		req := synthReq(128)
		req.Topology = topo
		mr, err := s.ComputePlan(req)
		if err != nil {
			t.Fatal(err)
		}
		if mr.Replanned != ReplanIncremental {
			t.Fatalf("%s: replanned %q, want %q", topo, mr.Replanned, ReplanIncremental)
		}
		key, err := PlanKey(req)
		if err != nil {
			t.Fatal(err)
		}
		v, hit, err := s.cache.Do(context.Background(), key, func(context.Context) (cachedPlan, error) {
			return cachedPlan{}, errors.New("repaired entry missing from the cache")
		})
		if err != nil || !hit {
			t.Fatalf("%s: cache probe: hit %v, err %v", topo, hit, err)
		}
		if v.state != nil {
			t.Fatalf("%s: repaired cache entry keeps a resumable state", topo)
		}
		if got := s.repairHits.Value(); got != int64(i+1) {
			t.Fatalf("%s: repair hits = %d, want %d", topo, got, i+1)
		}
	}
	j, err := buildJob(synthReq(128))
	if err != nil {
		t.Fatal(err)
	}
	anchor, sig, _, ok := s.stale.Get(j.wkKey, j.topoSig, 0)
	if !ok || anchor.plan.state == nil || anchor.plan.Replanned != ReplanFull || !sig.DriftWithin(j.topoSig, 0) {
		t.Fatal("the stale tier no longer holds the full compute's stateful anchor")
	}
}
