package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faults"
)

// overloadServer builds a 1-worker server whose only worker can be parked:
// park() occupies it with a blocked request and returns the release func.
// Requests issued before any park() run normally (priming the caches).
func overloadServer(t *testing.T, cfg Config) (*Server, *httptest.Server, func() func()) {
	t.Helper()
	cfg.Workers = 1
	var blocking atomic.Bool
	release := make(chan struct{})
	started := make(chan struct{}, 8)
	s := newTestServer(t, cfg)
	s.onJobStart = func() {
		if !blocking.Load() {
			return
		}
		started <- struct{}{}
		<-release
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	park := func() func() {
		blocking.Store(true)
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			// A spec no other test request shares, so it always computes
			// (the blocking comes from onJobStart, not the workload size).
			req := synthReq(48)
			req.Workload.Synth.Name = "parked"
			postJSON(t, ts.Client(), ts.URL+"/v1/map", req)
		}()
		<-started
		var once sync.Once
		return func() {
			once.Do(func() {
				blocking.Store(false)
				close(release)
				wg.Wait()
			})
		}
	}
	return s, ts, park
}

func metricsText(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return string(body)
}

// TestQueueFull429 saturates the admission queue and requires immediate
// shedding with 429, a Retry-After hint, and the shed counter advancing.
func TestQueueFull429(t *testing.T) {
	// Depth 0 (negative config): shed whenever no worker is free.
	s, ts, park := overloadServer(t, Config{AdmissionQueueDepth: -1})
	unpark := park()
	defer unpark()

	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/map", synthReq(64))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429: %s", resp.StatusCode, body)
	}
	ra := resp.Header.Get("Retry-After")
	secs, err := strconv.Atoi(ra)
	if err != nil || secs < 1 {
		t.Fatalf("Retry-After %q, want an integer >= 1", ra)
	}
	var er errorResponse
	if err := json.Unmarshal(body, &er); err != nil || er.Error == "" {
		t.Fatalf("shed response lacks the error envelope: %s", body)
	}
	if got := s.admShed.Value(); got != 1 {
		t.Fatalf("admission_shed_total = %v, want 1", got)
	}
	if !strings.Contains(metricsText(t, ts), "cachemapd_admission_shed_total 1") {
		t.Fatal("metrics exposition missing the shed counter")
	}
}

// TestQueueCostBound sheds by summed cost: with one cheap request queued,
// a second that would blow the cost budget is rejected even though the
// depth bound still has room.
func TestQueueCostBound(t *testing.T) {
	small := synthReq(64) // cost = 2*64 iterations × 7 nodes = 896
	_, ts, park := overloadServer(t, Config{
		AdmissionQueueDepth: 8,
		AdmissionQueueCost:  1000,
	})
	unpark := park()
	defer unpark()

	// First waiter fits the budget and queues (it will 503 on its own
	// deadline later; fire and forget on a goroutine).
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		postJSON(t, ts.Client(), ts.URL+"/v1/map", small)
	}()
	// Wait until it is actually queued.
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

	// Second waiter exceeds the summed budget: 896 + 2*8192*7 > 1000.
	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/map", synthReq(8192))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429: %s", resp.StatusCode, body)
	}
	unpark()
	wg.Wait()
}

// tsServerAdm reads the queue gauges from the metrics endpoint.
func tsServerAdm(ts *httptest.Server, t *testing.T) (queued int, cost int64) {
	t.Helper()
	for _, line := range strings.Split(metricsText(t, ts), "\n") {
		if rest, ok := strings.CutPrefix(line, "cachemapd_admission_queue_depth "); ok {
			v, _ := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			queued = int(v)
		}
		if rest, ok := strings.CutPrefix(line, "cachemapd_admission_queue_cost "); ok {
			v, _ := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			cost = int64(v)
		}
	}
	return queued, cost
}

// TestShedNeverReachesWorker: shed requests must not run the job function
// and must not leave goroutines behind — the whole point of admission
// control is that rejection costs nothing.
func TestShedNeverReachesWorker(t *testing.T) {
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
		resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/map", synthReq(int64(100+i)))
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("request %d: status %d, want 429: %s", i, resp.StatusCode, body)
		}
	}
	if got := jobs.Load(); got != 1 {
		t.Fatalf("job fn ran %d times, want 1 (shed requests reached the pool)", got)
	}
	// Shed requests leave no goroutines: allow slack for net/http churn.
	const slack = 10
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before+slack {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines grew from %d to %d after 20 shed requests",
				before, runtime.NumGoroutine())
		}
		time.Sleep(5 * time.Millisecond)
	}

	close(release)
	wg.Wait()
}

// TestDegradedStale: with degraded serving on, a shed request whose
// workload has a cached plan under a near-identical topology is answered
// 200 from the stale tier, marked and counted.
func TestDegradedStale(t *testing.T) {
	s, ts, park := overloadServer(t, Config{
		AdmissionQueueDepth: -1,
		Degraded:            true,
	})

	// Prime: compute the plan under topology A (worker free).
	prime := synthReq(128)
	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/map", prime)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("prime: status %d: %s", resp.StatusCode, body)
	}
	var primed MapResponse
	if err := json.Unmarshal(body, &primed); err != nil {
		t.Fatal(err)
	}

	unpark := park()
	defer unpark()

	// Same workload, topology drifted within tolerance (leaf caches 4→5).
	req := synthReq(128)
	req.Topology = "1/2/4@16,8,5"
	resp, body = postJSON(t, ts.Client(), ts.URL+"/v1/map", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded: status %d, want 200: %s", resp.StatusCode, body)
	}
	var mr MapResponse
	if err := json.Unmarshal(body, &mr); err != nil {
		t.Fatal(err)
	}
	if mr.Degraded != DegradedStale {
		t.Fatalf("degraded = %q, want %q (%s)", mr.Degraded, DegradedStale, body)
	}
	if mr.DegradedCause != "queue_full" {
		t.Fatalf("degraded_cause = %q, want queue_full", mr.DegradedCause)
	}
	if !mr.Cached || mr.CacheKey != primed.CacheKey {
		t.Fatalf("stale response should carry the primed plan's key: %+v", mr)
	}
	if mr.StaleAgeMS < 0 {
		t.Fatalf("stale_age_ms = %v", mr.StaleAgeMS)
	}
	if mr.Plan.Clients != primed.Plan.Clients {
		t.Fatalf("stale plan differs from primed plan")
	}
	if got := s.degraded.With(DegradedStale).Value(); got != 1 {
		t.Fatalf("degraded_responses_total{mode=stale} = %v, want 1", got)
	}
	if !strings.Contains(metricsText(t, ts),
		`cachemapd_degraded_responses_total{mode="stale"} 1`) {
		t.Fatal("metrics exposition missing the stale degraded counter")
	}

	// Topology drifted beyond tolerance must NOT serve stale: it falls
	// back to the cheap mapping instead.
	far := synthReq(128)
	far.Topology = "1/4/16@16,8,4"
	resp, body = postJSON(t, ts.Client(), ts.URL+"/v1/map", far)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("far-drift: status %d: %s", resp.StatusCode, body)
	}
	var fr MapResponse
	if err := json.Unmarshal(body, &fr); err != nil {
		t.Fatal(err)
	}
	if fr.Degraded != DegradedFallback {
		t.Fatalf("far-drift degraded = %q, want %q", fr.Degraded, DegradedFallback)
	}
	// Each degraded lookup counts under the stale-tier metrics, never the
	// repair ones: the drift-within hit and the far-drift miss.
	for series, want := range map[string]float64{
		"cachemapd_stale_tier_hits_total":      1,
		"cachemapd_stale_tier_misses_total":    1,
		"cachemapd_repair_lookup_hits_total":   0,
		"cachemapd_repair_lookup_misses_total": 0,
	} {
		if got := metricValue(t, ts, series); got != want {
			t.Errorf("%s = %v, want %v", series, got, want)
		}
	}
}

// TestDegradedFallback: a shed request with no usable stale plan is
// answered by the inline lexicographic mapping, marked and counted — and
// the fallback runs on the connection goroutine, not a worker slot.
func TestDegradedFallback(t *testing.T) {
	s, ts, park := overloadServer(t, Config{
		AdmissionQueueDepth: -1,
		Degraded:            true,
	})
	unpark := park()
	defer unpark()

	req := synthReq(96)
	req.Workload.Synth.Name = "coldwk" // nothing primed for this workload
	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/map", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200: %s", resp.StatusCode, body)
	}
	var mr MapResponse
	if err := json.Unmarshal(body, &mr); err != nil {
		t.Fatal(err)
	}
	if mr.Degraded != DegradedFallback || mr.DegradedCause != "queue_full" {
		t.Fatalf("degraded = %q cause = %q, want fallback/queue_full", mr.Degraded, mr.DegradedCause)
	}
	if mr.Cached || mr.StaleAgeMS != 0 {
		t.Fatalf("fallback response claims staleness: %+v", mr)
	}
	asg, err := mr.Plan.Assignment()
	if err != nil {
		t.Fatal(err)
	}
	if asg.TotalIterations() != 2*96 {
		t.Fatalf("fallback plan iterations = %d, want %d", asg.TotalIterations(), 2*96)
	}
	if got := s.degraded.With(DegradedFallback).Value(); got != 1 {
		t.Fatalf("degraded_responses_total{mode=fallback} = %v, want 1", got)
	}
}

// TestDegradedDeadline: a request whose deadline expires while it holds a
// worker degrades too (cause "deadline"), computed under the fallback
// grace budget even though the request context is already dead.
func TestDegradedDeadline(t *testing.T) {
	s := newTestServer(t, Config{
		Workers:        1,
		RequestTimeout: 50 * time.Millisecond,
		Degraded:       true,
	})
	s.onJobStart = func() { time.Sleep(120 * time.Millisecond) }
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/map", synthReq(64))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200 degraded: %s", resp.StatusCode, body)
	}
	var mr MapResponse
	if err := json.Unmarshal(body, &mr); err != nil {
		t.Fatal(err)
	}
	if mr.Degraded != DegradedFallback || mr.DegradedCause != "deadline" {
		t.Fatalf("degraded = %q cause = %q, want fallback/deadline", mr.Degraded, mr.DegradedCause)
	}
	if got := s.degraded.With(DegradedFallback).Value(); got != 1 {
		t.Fatalf("degraded counter = %v, want 1", got)
	}
}

// TestDegradedOffStill429: degradation disabled leaves the shed path as a
// plain 429 — no silent fallback the operator didn't ask for.
func TestDegradedOffStill429(t *testing.T) {
	_, ts, park := overloadServer(t, Config{AdmissionQueueDepth: -1})
	unpark := park()
	defer unpark()

	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/map", synthReq(64))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429: %s", resp.StatusCode, body)
	}
}

// TestFaultsEndpoint: GET/POST /debug/faults inspect and replace the armed
// rules; servers without an injector 404.
func TestFaultsEndpoint(t *testing.T) {
	inj := faults.New(42)
	if err := inj.SetRules([]faults.Rule{
		{Kind: faults.KindLatency, Site: "pipeline/tags", Prob: 0.5, Delay: faults.Duration(time.Millisecond)},
	}); err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Config{Faults: inj})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	get := func() faultsResponse {
		resp, err := ts.Client().Get(ts.URL + "/debug/faults")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /debug/faults: %d %s", resp.StatusCode, body)
		}
		var fr faultsResponse
		if err := json.Unmarshal(body, &fr); err != nil {
			t.Fatal(err)
		}
		return fr
	}
	fr := get()
	if fr.Seed != 42 || len(fr.Rules) != 1 || fr.Rules[0].Site != "pipeline/tags" {
		t.Fatalf("initial status = %+v", fr)
	}

	// Replace the rule set over the wire.
	resp, body := postJSON(t, ts.Client(), ts.URL+"/debug/faults", []faults.Rule{
		{Kind: faults.KindError, Site: "server/admit", Prob: 1},
		{Kind: faults.KindCrash, Site: "plancache/leader", Prob: 0.5},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /debug/faults: %d %s", resp.StatusCode, body)
	}
	fr = get()
	if len(fr.Rules) != 2 || fr.Rules[0].Site != "pipeline/tags" && fr.Rules[0].Calls != 0 {
		t.Fatalf("replaced status = %+v", fr)
	}

	// Invalid rules are rejected with 400 and leave the set unchanged.
	resp, _ = postJSON(t, ts.Client(), ts.URL+"/debug/faults", []faults.Rule{
		{Kind: "nosuch", Site: "x", Prob: 1},
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid rules: status %d, want 400", resp.StatusCode)
	}
	if got := get(); len(got.Rules) != 2 {
		t.Fatalf("invalid POST mutated the rule set: %+v", got)
	}

	// No injector → 404.
	plain := httptest.NewServer(newTestServer(t, Config{}).Handler())
	defer plain.Close()
	resp2, err := plain.Client().Get(plain.URL + "/debug/faults")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Fatalf("no injector: status %d, want 404", resp2.StatusCode)
	}
}

// TestInjectedStageError: a certain pipeline-stage error surfaces as 503
// (an injected fault, not an internal error), and with degraded serving on
// the same fault is absorbed into a fallback response with cause "fault".
func TestInjectedStageError(t *testing.T) {
	inj := faults.New(7)
	if err := inj.SetRules([]faults.Rule{
		{Kind: faults.KindError, Site: "pipeline/tags", Prob: 1},
	}); err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Config{Faults: inj})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/map", synthReq(64))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503: %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "injected fault") {
		t.Fatalf("error does not identify the injected fault: %s", body)
	}
	if got := s.faultsFired.With("pipeline/tags").Value(); got < 1 {
		t.Fatalf("faults_injected_total{site=pipeline/tags} = %v", got)
	}

	// Same fault, degraded serving on: absorbed into a fallback. The
	// fallback pipeline itself runs unhooked, so it cannot re-fire.
	s2 := newTestServer(t, Config{Faults: inj, Degraded: true})
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	resp, body = postJSON(t, ts2.Client(), ts2.URL+"/v1/map", synthReq(64))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded: status %d, want 200: %s", resp.StatusCode, body)
	}
	var mr MapResponse
	if err := json.Unmarshal(body, &mr); err != nil {
		t.Fatal(err)
	}
	if mr.Degraded != DegradedFallback || mr.DegradedCause != "fault" {
		t.Fatalf("degraded = %q cause = %q, want fallback/fault", mr.Degraded, mr.DegradedCause)
	}
}

// TestInjectedLeaderCrash: a certain plan-cache leader crash abandons the
// computation (503, counted at its site); with degraded serving and a
// primed stale tier the same crash is absorbed into a stale response.
func TestInjectedLeaderCrash(t *testing.T) {
	inj := faults.New(11)
	s := newTestServer(t, Config{Faults: inj, Degraded: true})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Prime the stale tier with no faults armed.
	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/map", synthReq(128))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("prime: %d %s", resp.StatusCode, body)
	}

	if err := inj.SetRules([]faults.Rule{
		{Kind: faults.KindCrash, Site: "plancache/leader", Prob: 1},
	}); err != nil {
		t.Fatal(err)
	}

	// Same workload, drifted topology: the plan-cache miss elects a leader,
	// the leader crashes, and the stale tier absorbs the failure.
	req := synthReq(128)
	req.Topology = "1/2/4@16,8,5"
	resp, body = postJSON(t, ts.Client(), ts.URL+"/v1/map", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200 degraded: %s", resp.StatusCode, body)
	}
	var mr MapResponse
	if err := json.Unmarshal(body, &mr); err != nil {
		t.Fatal(err)
	}
	if mr.Degraded != DegradedStale || mr.DegradedCause != "fault" {
		t.Fatalf("degraded = %q cause = %q, want stale/fault", mr.Degraded, mr.DegradedCause)
	}
	if got := s.faultsFired.With("plancache/leader").Value(); got != 1 {
		t.Fatalf("faults_injected_total{site=plancache/leader} = %v, want 1", got)
	}

	// Without degradation the crash surfaces as 503.
	s2 := newTestServer(t, Config{Faults: inj})
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	resp, body = postJSON(t, ts2.Client(), ts2.URL+"/v1/map", synthReq(256))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503: %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "plancache/leader") {
		t.Fatalf("error does not identify the crash site: %s", body)
	}
}

// TestFaultDeterminism: two servers with identically seeded injectors,
// driven by the same sequential request sequence, inject the identical
// fault sequence — the property that makes chaos runs assertable.
func TestFaultDeterminism(t *testing.T) {
	rules := []faults.Rule{
		{Kind: faults.KindLatency, Site: "pipeline/tags", Prob: 0.4, Delay: faults.Duration(time.Microsecond)},
		{Kind: faults.KindError, Site: "server/admit", Prob: 0.3},
	}
	run := func() []faults.SiteStatus {
		inj := faults.New(1234)
		if err := inj.SetRules(rules); err != nil {
			t.Fatal(err)
		}
		s := newTestServer(t, Config{Faults: inj, PlanCacheSize: 4})
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		for i := 0; i < 12; i++ {
			postJSON(t, ts.Client(), ts.URL+"/v1/map", synthReq(int64(32+i)))
		}
		return inj.Status()
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("status lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Site != b[i].Site || a[i].Calls != b[i].Calls || a[i].Fired != b[i].Fired {
			t.Fatalf("fault sequences diverge at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
	// And faults actually fired somewhere, or the test proves nothing.
	fired := uint64(0)
	for _, st := range a {
		fired += st.Fired
	}
	if fired == 0 {
		t.Fatal("no fault fired across 12 requests at p=0.3/0.4")
	}
}
