package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/mapping"
	"repro/internal/workloads"
)

func synthReq(extent int64) MapRequest {
	return MapRequest{
		Workload: WorkloadSpec{Synth: &workloads.SynthSpec{
			Name:    "t",
			Passes:  2,
			Extent:  extent,
			Streams: []workloads.StreamSpec{{Stride: 1}},
		}},
		Topology: "1/2/4@16,8,4",
	}
}

func postJSON(t *testing.T, client *http.Client, url string, body any) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

// newTestServer builds a Server from cfg, failing the test on error.
func newTestServer(t testing.TB, cfg Config) *Server {
	t.Helper()
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestMapEndpoint(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/map", synthReq(128))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var mr MapResponse
	if err := json.Unmarshal(body, &mr); err != nil {
		t.Fatal(err)
	}
	if mr.Plan.Schema != mapping.PlanSchemaVersion {
		t.Fatalf("schema = %d", mr.Plan.Schema)
	}
	if mr.Plan.Clients != 4 {
		t.Fatalf("clients = %d", mr.Plan.Clients)
	}
	if mr.Plan.TotalIterations != 2*128 {
		t.Fatalf("iterations = %d", mr.Plan.TotalIterations)
	}
	if mr.Cached {
		t.Fatal("first request reported cached")
	}
	if len(mr.CacheKey) != 64 {
		t.Fatalf("cache key %q", mr.CacheKey)
	}
	if len(mr.Stages) == 0 {
		t.Fatal("map response carries no stage breakdown")
	}
	stages := make(map[string]bool)
	for _, st := range mr.Stages {
		stages[st.Stage] = true
	}
	if !stages["cluster"] || !stages["encode"] {
		t.Fatalf("stage breakdown missing cluster/encode: %+v", mr.Stages)
	}

	// The identical spec is a cache hit, even spelled with explicit
	// defaults (normalization canonicalizes before hashing).
	req2 := synthReq(128)
	req2.Scheme = "inter"
	req2.BalanceThreshold = 0.10
	req2.DepMode = "ignore"
	resp, body = postJSON(t, ts.Client(), ts.URL+"/v1/map", req2)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var mr2 MapResponse
	if err := json.Unmarshal(body, &mr2); err != nil {
		t.Fatal(err)
	}
	if !mr2.Cached {
		t.Fatal("identical spec missed the plan cache")
	}
	if mr2.CacheKey != mr.CacheKey {
		t.Fatalf("cache keys differ: %s vs %s", mr2.CacheKey, mr.CacheKey)
	}

	// A different scheme is a different plan.
	req3 := synthReq(128)
	req3.Scheme = "original"
	resp, body = postJSON(t, ts.Client(), ts.URL+"/v1/map", req3)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var mr3 MapResponse
	if err := json.Unmarshal(body, &mr3); err != nil {
		t.Fatal(err)
	}
	if mr3.Cached || mr3.CacheKey == mr.CacheKey {
		t.Fatal("different scheme shared a cache entry")
	}
}

func TestMapEndpointErrors(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cases := []struct {
		name string
		body string
		want int
	}{
		{"not json", `{`, http.StatusBadRequest},
		{"unknown field", `{"workload":{"app":"apsi"},"topology":"1/2/4","shceme":"inter"}`, http.StatusBadRequest},
		{"no workload", `{"topology":"1/2/4"}`, http.StatusBadRequest},
		{"two workloads", `{"workload":{"app":"apsi","synth":{"Passes":1,"Extent":1,"Streams":[{"Stride":1}]}},"topology":"1/2/4"}`, http.StatusBadRequest},
		{"unknown app", `{"workload":{"app":"nosuch"},"topology":"1/2/4"}`, http.StatusBadRequest},
		{"bad topology", `{"workload":{"app":"apsi"},"topology":"4/2"}`, http.StatusBadRequest},
		{"missing topology", `{"workload":{"app":"apsi"}}`, http.StatusBadRequest},
		{"bad scheme", `{"workload":{"app":"apsi"},"topology":"1/2/4","scheme":"nosuch"}`, http.StatusBadRequest},
		{"bad dep mode", `{"workload":{"app":"apsi"},"topology":"1/2/4","dep_mode":"nosuch"}`, http.StatusBadRequest},
		{"bad threshold", `{"workload":{"app":"apsi"},"topology":"1/2/4","balance_threshold":2}`, http.StatusBadRequest},
		{"negative alpha", `{"workload":{"app":"apsi"},"topology":"1/2/4","scheme":"inter-sched","alpha":-1}`, http.StatusBadRequest},
		{"negative synth elem", `{"workload":{"synth":{"Passes":1,"Extent":64,"Streams":[{"Stride":1}],"ElemBytes":-8}},"topology":"1/2/4"}`, http.StatusBadRequest},
		{"negative synth chunk", `{"workload":{"synth":{"Passes":1,"Extent":64,"Streams":[{"Stride":1}],"ChunkBytes":-8}},"topology":"1/2/4"}`, http.StatusBadRequest},
		{"negative stencil elem", `{"workload":{"stencil":{"Passes":1,"Rows":8,"Cols":8,"ElemBytes":-8}},"topology":"1/2/4"}`, http.StatusBadRequest},
		{"negative stencil chunk", `{"workload":{"stencil":{"Passes":1,"Rows":8,"Cols":8,"ChunkBytes":-8}},"topology":"1/2/4"}`, http.StatusBadRequest},
		// Sizes at the int64 edge: bytes that overflow are a 400, and a
		// huge chunk size that fits gets a plan.
		{"chunk_kb at the edge", `{"workload":{"app":"hf","scale":8,"chunk_kb":9007199254740991},"topology":"2/4/8@16,8,4"}`, http.StatusOK},
		{"chunk_kb overflows", `{"workload":{"app":"hf","scale":8,"chunk_kb":9007199254740992},"topology":"2/4/8@16,8,4"}`, http.StatusBadRequest},
		{"synth elem 2^58 overflows", `{"workload":{"synth":{"Passes":1,"Extent":64,"Streams":[{"Stride":1}],"ElemBytes":288230376151711744}},"topology":"2/4/8@16,8,4"}`, http.StatusBadRequest},
		{"synth elem 2^62 overflows", `{"workload":{"synth":{"Passes":1,"Extent":64,"Streams":[{"Stride":1}],"ElemBytes":4611686018427387904}},"topology":"2/4/8@16,8,4"}`, http.StatusBadRequest},
		{"stencil elem 2^58 overflows", `{"workload":{"stencil":{"Passes":1,"Rows":8,"Cols":8,"ElemBytes":288230376151711744}},"topology":"2/4/8@16,8,4"}`, http.StatusBadRequest},
		{"stencil elem 2^62 overflows", `{"workload":{"stencil":{"Passes":1,"Rows":8,"Cols":8,"ElemBytes":4611686018427387904}},"topology":"2/4/8@16,8,4"}`, http.StatusBadRequest},
		{"synth elements overflow", `{"workload":{"synth":{"Passes":4611686018427387904,"Extent":4,"PerPassOut":true,"Streams":[{"Stride":1}]}},"topology":"2/4/8@16,8,4"}`, http.StatusBadRequest},
		{"stencil elements overflow", `{"workload":{"stencil":{"Passes":1,"Rows":4611686018427387904,"Cols":8}},"topology":"2/4/8@16,8,4"}`, http.StatusBadRequest},
		{"synth subscript overflows", `{"workload":{"synth":{"Passes":1,"Extent":1,"Streams":[{"Stride":1,"Offset":9223372036854775807}]}},"topology":"2/4/8@16,8,4"}`, http.StatusBadRequest},
		{"synth chunk at the edge", `{"workload":{"synth":{"Passes":1,"Extent":64,"Streams":[{"Stride":1}],"ChunkBytes":9223372036854775807}},"topology":"2/4/8@16,8,4"}`, http.StatusOK},
		{"stencil chunk at the edge", `{"workload":{"stencil":{"Passes":1,"Rows":8,"Cols":8,"ChunkBytes":9223372036854775807}},"topology":"2/4/8@16,8,4"}`, http.StatusOK},
	}
	for _, tc := range cases {
		resp, err := ts.Client().Post(ts.URL+"/v1/map", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, resp.StatusCode, tc.want, body)
		}
		if tc.want == http.StatusOK {
			continue
		}
		var er errorResponse
		if err := json.Unmarshal(body, &er); err != nil || er.Error == "" {
			t.Errorf("%s: error envelope missing: %s", tc.name, body)
		}
	}

	// Wrong method.
	resp, err := ts.Client().Get(ts.URL + "/v1/map")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/map: status %d, want 405", resp.StatusCode)
	}
}

// TestEncodeFailureIs500: a response that fails to encode is answered with
// 500 and recorded as the 500 it was: the wide event carries the status and
// the encode error, and the error counter counts it once.
func TestEncodeFailureIs500(t *testing.T) {
	s := newTestServer(t, Config{})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	rec := httptest.NewRecorder()
	s.serve(rec, httptest.NewRequest(http.MethodPost, "/v1/map", strings.NewReader("{}")),
		func(context.Context, []byte) (any, error) { return math.NaN(), nil })
	const want = "encoding response: json: unsupported value: NaN"
	if rec.Code != http.StatusInternalServerError || strings.TrimSpace(rec.Body.String()) != `{"error":"`+want+`"}` {
		t.Fatalf("status %d body %s, want 500 with the encode error", rec.Code, rec.Body)
	}
	var er eventsResponse
	getDebugJSON(t, ts.URL+"/debug/events", &er)
	if er.Count != 1 || er.Events[0].Status != http.StatusInternalServerError || er.Events[0].Error != want {
		t.Fatalf("the request's event: %+v, want status 500 and error %q", er.Events, want)
	}
	if got := s.reqErrors.Value(); got != 1 {
		t.Fatalf("request_errors_total = %d, want 1", got)
	}
}

func TestSimulateEndpoint(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req := SimRequest{MapRequest: synthReq(256)}
	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/simulate", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var sr SimResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Scheme != "inter" {
		t.Fatalf("scheme = %q", sr.Scheme)
	}
	if len(sr.MissRates) != 3 {
		t.Fatalf("miss rates = %v, want 3 levels", sr.MissRates)
	}
	if sr.Iterations != 2*256 {
		t.Fatalf("iterations = %d", sr.Iterations)
	}
	if sr.DiskReads <= 0 {
		t.Fatalf("disk reads = %d", sr.DiskReads)
	}
	if sr.Cached {
		t.Fatal("first simulate reported a plan cache hit")
	}

	// The simulation reuses the plan cache: a /v1/map for the same spec is
	// served from the plan the simulation computed.
	resp, body = postJSON(t, ts.Client(), ts.URL+"/v1/map", synthReq(256))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var mr MapResponse
	if err := json.Unmarshal(body, &mr); err != nil {
		t.Fatal(err)
	}
	if !mr.Cached {
		t.Fatal("map after simulate missed the plan cache")
	}

	// Simulator knob validation.
	bad := SimRequest{MapRequest: synthReq(256), Policy: "nosuch"}
	resp, _ = postJSON(t, ts.Client(), ts.URL+"/v1/simulate", bad)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad policy: status %d", resp.StatusCode)
	}
}

func TestHealthzAndMetrics(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var hz healthzResponse
	if err := json.Unmarshal(body, &hz); err != nil {
		t.Fatalf("healthz is not JSON: %v: %q", err, body)
	}
	if resp.StatusCode != http.StatusOK || hz.Status != "ok" {
		t.Fatalf("healthz: %d %q", resp.StatusCode, body)
	}
	if hz.Admission.Limit != s.cfg.AdmissionQueueDepth || hz.Admission.Workers != s.cfg.Workers {
		t.Fatalf("healthz admission block = %+v", hz.Admission)
	}
	if hz.Ring != nil {
		t.Fatalf("unclustered server reported a ring: %+v", hz.Ring)
	}

	// Drive one miss and one hit, then check the exposition. A debug
	// endpoint's 404 is not an API request, so it counts as no error.
	postJSON(t, ts.Client(), ts.URL+"/v1/map", synthReq(64))
	postJSON(t, ts.Client(), ts.URL+"/v1/map", synthReq(64))
	if resp, err := ts.Client().Get(ts.URL + "/debug/faults"); err != nil || resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /debug/faults without an injector: %v %v, want 404", resp, err)
	} else {
		resp.Body.Close()
	}

	resp, err = ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	out := string(body)
	for _, want := range []string{
		`cachemapd_requests_total{route="/v1/map"} 2`,
		"cachemapd_request_errors_total 0",
		"cachemapd_in_flight_requests 0",
		"cachemapd_plan_cache_hits_total 1",
		"cachemapd_plan_cache_misses_total 1",
		"cachemapd_pipeline_computes_total 1",
		"# TYPE cachemapd_clustering_duration_seconds histogram",
		"cachemapd_clustering_duration_seconds_count 1",
		"cachemapd_request_duration_seconds_count",
		"# TYPE cachemapd_stage_duration_seconds histogram",
		`cachemapd_stage_duration_seconds_count{stage="cluster"} 1`,
		`cachemapd_stage_duration_seconds_count{stage="encode"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q:\n%s", want, out)
		}
	}

	// The sparse similarity engine's counters: the one cold mapping must
	// report a dense bound, and generated pairs can never exceed it. (A
	// strided synth stream never revisits data, so its tags are pairwise
	// disjoint and zero generated pairs is the correct count here; the
	// core and pipeline suites cover the overlapping-workload case.)
	counter := func(name string) int64 {
		for _, line := range strings.Split(out, "\n") {
			if rest, ok := strings.CutPrefix(line, name+" "); ok {
				v, err := strconv.ParseInt(strings.TrimSpace(rest), 10, 64)
				if err != nil {
					t.Fatalf("parse %s: %v", name, err)
				}
				return v
			}
		}
		t.Fatalf("metrics missing %q:\n%s", name, out)
		return 0
	}
	gen := counter("cachemapd_similarity_pairs_generated")
	dense := counter("cachemapd_similarity_pairs_dense_bound")
	if dense <= 0 || gen < 0 || gen > dense {
		t.Errorf("pair counters generated=%d dense=%d, want 0 <= generated <= dense", gen, dense)
	}
}

// TestMetricsHelpGolden pins the # HELP and # TYPE lines of a fresh
// server with every optional family registered (a plan store and quality
// sampling on): every series' name, kind, help text and position in the
// exposition.
func TestMetricsHelpGolden(t *testing.T) {
	s := newTestServer(t, Config{
		Store:             StoreConfig{Dir: t.TempDir()},
		QualitySampleRate: 0.5,
	})
	defer s.Close()
	var exp bytes.Buffer
	s.Registry().WritePrometheus(&exp)
	var got bytes.Buffer
	for _, line := range strings.SplitAfter(exp.String(), "\n") {
		if strings.HasPrefix(line, "# ") {
			got.WriteString(line)
		}
	}
	golden := filepath.Join("testdata", "metrics_help.txt")
	if *updateGolden {
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("HELP/TYPE lines drifted from %s:\n got:\n%s\nwant:\n%s", golden, got.Bytes(), want)
	}
}

// TestMetricsCountsGolden pins what one scripted mix of requests counts:
// a cold compute, a memory hit, an incremental repair, a three-spec batch,
// a simulate, and a stale and a fallback degraded answer under an injected
// admission error. The golden holds every _total and _count sample and the
// two similarity-pair counters; gauges, buckets, sums and the runtime
// metrics vary from run to run and are left out.
func TestMetricsCountsGolden(t *testing.T) {
	inj := faults.New(1)
	s := newTestServer(t, Config{
		Workers:  2,
		Repair:   RepairConfig{Enabled: true},
		Degraded: true,
		Faults:   inj,
	})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	post := func(path string, req any) {
		t.Helper()
		if resp, body := postJSON(t, ts.Client(), ts.URL+path, req); resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", path, resp.StatusCode, body)
		}
	}
	near := synthReq(128)
	near.Topology = "1/2/4@16,8,5"
	post("/v1/map", synthReq(128)) // cold compute
	post("/v1/map", synthReq(128)) // memory hit
	post("/v1/map", near)          // incremental repair
	var family []MapRequest
	for _, topo := range []string{"2/4/8@16,8,4", "2/4/8@16,8,5", "2/4/8@16,8,3"} {
		r := synthReq(192)
		r.Topology = topo
		family = append(family, r)
	}
	post("/v1/map/batch", batchOf(family...))
	post("/v1/simulate", SimRequest{MapRequest: synthReq(128)})
	if err := inj.SetRules([]faults.Rule{{Kind: faults.KindError, Site: "server/admit", Prob: 1}}); err != nil {
		t.Fatal(err)
	}
	post("/v1/map", near)         // stale
	post("/v1/map", synthReq(64)) // fallback: no plan of this workload yet
	if err := inj.SetRules(nil); err != nil {
		t.Fatal(err)
	}

	var got bytes.Buffer
	for _, line := range strings.Split(metricsText(t, ts), "\n") {
		name, _, _ := strings.Cut(line, " ")
		name, _, _ = strings.Cut(name, "{")
		switch {
		case name == "" || strings.HasPrefix(name, "#") || name == "cachemapd_gc_pause_cpu_seconds_total":
		case strings.HasSuffix(name, "_total") || strings.HasSuffix(name, "_count"),
			name == "cachemapd_similarity_pairs_generated", name == "cachemapd_similarity_pairs_dense_bound":
			got.WriteString(line + "\n")
		}
	}
	golden := filepath.Join("testdata", "metrics_counts.txt")
	if *updateGolden {
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("counts drifted from %s:\n got:\n%s\nwant:\n%s", golden, got.Bytes(), want)
	}
}

// TestCountsRenderAsCounts: the plan store's and the quality sampler's
// whole-number counters are CountFuncs, which render like a Counter at any
// size where a CounterFunc's float turns to e-notation past a million.
// Registering a name again under its own kind returns quietly; under
// another kind it panics.
func TestCountsRenderAsCounts(t *testing.T) {
	s := newTestServer(t, Config{
		Store:             StoreConfig{Dir: t.TempDir()},
		QualitySampleRate: 0.5,
	})
	defer s.Close()
	var exp bytes.Buffer
	s.Registry().WritePrometheus(&exp)
	for _, name := range []string{
		"cachemapd_planstore_skipped_records_total",
		"cachemapd_planstore_schema_dropped_records_total",
		"cachemapd_planstore_appends_total",
		"cachemapd_planstore_evictions_total",
		"cachemapd_planstore_compactions_total",
		"cachemapd_planstore_read_errors_total",
		"cachemapd_planstore_disk_hits_total",
		"cachemapd_planstore_write_queue_drops_total",
		"cachemapd_quality_sampled_total",
		"cachemapd_quality_skipped_total",
		"cachemapd_quality_overflow_total",
	} {
		if !strings.Contains(exp.String(), "# TYPE "+name+" counter\n") {
			t.Errorf("%s is not a registered counter", name)
			continue
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("%s is not a CountFunc: %v", name, r)
				}
			}()
			s.Registry().CountFunc(name, "", func() int64 { return 0 })
		}()
	}
}

// TestConcurrentMapRequests drives 64 concurrent mixed-spec requests — the
// acceptance bar for the daemon — and requires zero errors.
func TestConcurrentMapRequests(t *testing.T) {
	s := newTestServer(t, Config{Workers: 4, PlanCacheSize: 64})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	ts.Client().Transport.(*http.Transport).MaxConnsPerHost = 0

	const n = 64
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req := synthReq(int64(64 + 16*(i%8))) // 8 distinct specs, hot reuse
			if i%3 == 0 {
				req.Scheme = "original"
			}
			b, _ := json.Marshal(req)
			resp, err := ts.Client().Post(ts.URL+"/v1/map", "application/json", bytes.NewReader(b))
			if err != nil {
				errs <- err
				return
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("status %d: %s", resp.StatusCode, body)
				return
			}
			var mr MapResponse
			if err := json.Unmarshal(body, &mr); err != nil {
				errs <- err
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	st := s.cache.Stats()
	hits, misses := st.Hits, st.Misses
	if misses > 16 { // 8 specs × 2 schemes at most
		t.Errorf("misses = %d, want <= 16", misses)
	}
	if hits+misses != n {
		t.Errorf("hits+misses = %d, want %d", hits+misses, n)
	}
}

// TestQueueBusy503 fills the worker pool and requires queued requests to
// fail fast with 503 when the deadline expires before admission.
func TestQueueBusy503(t *testing.T) {
	block := make(chan struct{})
	s := newTestServer(t, Config{Workers: 1, RequestTimeout: 200 * time.Millisecond})
	started := make(chan struct{}, 8)
	s.onJobStart = func() {
		started <- struct{}{}
		<-block
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Occupy the only worker.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		postJSON(t, ts.Client(), ts.URL+"/v1/map", synthReq(4096))
	}()
	<-started

	// This one can never be admitted before its deadline.
	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/map", synthReq(8192))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503: %s", resp.StatusCode, body)
	}

	close(block)
	wg.Wait()
}

// TestGracefulShutdownDrains starts a real http.Server, parks a request
// mid-computation, issues Shutdown (what cachemapd does on SIGTERM), and
// requires the in-flight request to complete successfully before Shutdown
// returns.
func TestGracefulShutdownDrains(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 1)
	s := newTestServer(t, Config{Workers: 2})
	s.onJobStart = func() {
		select {
		case started <- struct{}{}:
		default:
		}
		<-release
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: s.Handler()}
	serveDone := make(chan error, 1)
	go func() { serveDone <- hs.Serve(ln) }()

	url := "http://" + ln.Addr().String()
	type result struct {
		status int
		body   []byte
		err    error
	}
	reqDone := make(chan result, 1)
	go func() {
		b, _ := json.Marshal(synthReq(512))
		resp, err := http.Post(url+"/v1/map", "application/json", bytes.NewReader(b))
		if err != nil {
			reqDone <- result{err: err}
			return
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		reqDone <- result{status: resp.StatusCode, body: body}
	}()
	<-started // the request is admitted and computing

	shutDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutDone <- hs.Shutdown(ctx)
	}()

	// New connections are refused while draining.
	time.Sleep(20 * time.Millisecond)
	select {
	case res := <-reqDone:
		t.Fatalf("in-flight request finished before release: %+v", res)
	case err := <-shutDone:
		t.Fatalf("shutdown returned before drain: %v", err)
	default:
	}

	close(release) // let the parked job finish

	res := <-reqDone
	if res.err != nil {
		t.Fatalf("in-flight request failed: %v", res.err)
	}
	if res.status != http.StatusOK {
		t.Fatalf("in-flight request status %d: %s", res.status, res.body)
	}
	var mr MapResponse
	if err := json.Unmarshal(res.body, &mr); err != nil {
		t.Fatal(err)
	}
	if mr.Plan.TotalIterations != 2*512 {
		t.Fatalf("drained plan iterations = %d", mr.Plan.TotalIterations)
	}
	if err := <-shutDone; err != nil {
		t.Fatalf("shutdown error: %v", err)
	}
	if err := <-serveDone; err != http.ErrServerClosed {
		t.Fatalf("serve returned %v", err)
	}
}

func TestComputePlanInProcess(t *testing.T) {
	s := newTestServer(t, Config{})
	mr, err := s.ComputePlan(synthReq(128))
	if err != nil {
		t.Fatal(err)
	}
	if mr.Plan.Clients != 4 || mr.Cached {
		t.Fatalf("plan = %+v", mr)
	}
	mr2, err := s.ComputePlan(synthReq(128))
	if err != nil {
		t.Fatal(err)
	}
	if !mr2.Cached {
		t.Fatal("second in-process compute missed the cache")
	}
	asg, err := mr.Plan.Assignment()
	if err != nil {
		t.Fatal(err)
	}
	if asg.TotalIterations() != 256 {
		t.Fatalf("decoded iterations = %d", asg.TotalIterations())
	}
}

// TestTimeoutReleasesWorkers is the regression test for the detached-worker
// leak: a request that overruns its deadline must cancel its computation
// cooperatively and free the worker, so 50 timed-out requests leave the
// goroutine count where it started instead of stranding 50 clustering jobs.
func TestTimeoutReleasesWorkers(t *testing.T) {
	s := newTestServer(t, Config{Workers: 50, RequestTimeout: 20 * time.Millisecond})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	before := runtime.NumGoroutine()
	timeouts := 0
	for i := 0; i < 50; i++ {
		// Distinct specs: every request computes cold. The extent is sized
		// so the mapping outruns the 20ms deadline even with the sparse
		// similarity engine (the tag stage alone scans ~1.6M iterations).
		req := synthReq(int64(800000 + i))
		resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/map", req)
		switch resp.StatusCode {
		case http.StatusGatewayTimeout:
			timeouts++
		case http.StatusOK, http.StatusServiceUnavailable:
		default:
			t.Fatalf("request %d: status %d: %s", i, resp.StatusCode, body)
		}
	}
	if timeouts < 40 {
		t.Fatalf("only %d/50 requests timed out; the workload no longer outruns the deadline", timeouts)
	}

	// The canceled computations must wind down promptly; allow generous
	// slack for idle net/http machinery.
	const slack = 10
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before+slack {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines grew from %d to %d after 50 timed-out requests",
				before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}
