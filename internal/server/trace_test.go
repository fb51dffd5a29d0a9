package server

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

func getJSON(t *testing.T, client *http.Client, url string, v any) {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", url, resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, v); err != nil {
		t.Fatalf("GET %s: bad JSON: %v\n%s", url, err, body)
	}
}

func spansByName(tr *obs.Trace) map[string][]obs.SpanData {
	out := map[string][]obs.SpanData{}
	for _, sp := range tr.Spans {
		out[sp.Name] = append(out[sp.Name], sp)
	}
	return out
}

// TestTraceColdMapRequest is the tentpole acceptance path: a cache-missing
// POST /v1/map with a caller-supplied traceparent yields a trace whose ID
// is echoed in X-Trace-Id, containing the request root span, a
// plancache.compute span, and one child span per pipeline stage whose
// durations agree exactly with the response's "stages" breakdown; the
// Chrome trace_event export parses as JSON with correct ts/dur nesting.
func TestTraceColdMapRequest(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const traceparent = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	const wantTraceID = "4bf92f3577b34da6a3ce929d0e0e4736"

	b, _ := json.Marshal(synthReq(128))
	req, _ := http.NewRequest("POST", ts.URL+"/v1/map", bytes.NewReader(b))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("traceparent", traceparent)
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Trace-Id"); got != wantTraceID {
		t.Fatalf("X-Trace-Id = %q, want %q (the ingested traceparent's trace ID)", got, wantTraceID)
	}
	var mr MapResponse
	if err := json.Unmarshal(body, &mr); err != nil {
		t.Fatal(err)
	}
	if mr.Cached || len(mr.Stages) == 0 {
		t.Fatalf("expected a cold plan with stages, got cached=%v stages=%v", mr.Cached, mr.Stages)
	}

	// The trace is retrievable through the debug endpoint.
	var tl tracesResponse
	getJSON(t, ts.Client(), ts.URL+"/debug/traces", &tl)
	if tl.Count < 1 || tl.Capacity != 256 {
		t.Fatalf("trace list: count=%d capacity=%d", tl.Count, tl.Capacity)
	}
	var trace *obs.Trace
	for _, tr := range tl.Traces {
		if tr.TraceID == wantTraceID {
			trace = tr
		}
	}
	if trace == nil {
		t.Fatalf("trace %s not in /debug/traces", wantTraceID)
	}

	spans := spansByName(trace)
	root := spans["POST /v1/map"]
	if len(root) != 1 {
		t.Fatalf("want 1 root span, have %v", spans)
	}
	// The root span continues the caller's trace: its parent is the
	// traceparent's span ID.
	if root[0].ParentID != "00f067aa0ba902b7" {
		t.Fatalf("root parent %q, want the remote span from traceparent", root[0].ParentID)
	}
	compute := spans["plancache.compute"]
	if len(compute) != 1 {
		t.Fatalf("want 1 plancache.compute span, have %v", spans)
	}
	if compute[0].ParentID != root[0].SpanID {
		t.Fatal("compute span not parented under the request root")
	}
	if len(spans["plancache.wait"]) != 0 {
		t.Fatal("cold request has a singleflight-wait span")
	}

	// One child span per pipeline stage, durations agreeing exactly with
	// the response breakdown.
	for _, st := range mr.Stages {
		var ns int64
		for _, sp := range spans[st.Stage] {
			if sp.ParentID != compute[0].SpanID {
				t.Fatalf("stage span %s not parented under plancache.compute", st.Stage)
			}
			ns += sp.DurationNS
		}
		if ns == 0 && st.DurationMS != 0 {
			t.Fatalf("no span for stage %q", st.Stage)
		}
		if got := float64(ns) / 1e6; got != st.DurationMS {
			t.Fatalf("stage %s: span %.9fms vs response %.9fms", st.Stage, got, st.DurationMS)
		}
	}

	// Chrome export: valid JSON, every event a complete event, children
	// nested within their parents' [ts, ts+dur] window.
	resp, err = ts.Client().Get(ts.URL + "/debug/traces/" + wantTraceID)
	if err != nil {
		t.Fatal(err)
	}
	chrome, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("chrome export status %d", resp.StatusCode)
	}
	var export struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Ph   string            `json:"ph"`
			Ts   float64           `json:"ts"`
			Dur  float64           `json:"dur"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(chrome, &export); err != nil {
		t.Fatalf("chrome export is not valid JSON: %v\n%s", err, chrome)
	}
	if len(export.TraceEvents) != len(trace.Spans) {
		t.Fatalf("%d chrome events for %d spans", len(export.TraceEvents), len(trace.Spans))
	}
	byID := map[string]int{}
	for i, ev := range export.TraceEvents {
		if ev.Ph != "X" {
			t.Fatalf("event %s: ph %q, want X", ev.Name, ev.Ph)
		}
		byID[ev.Args["span_id"]] = i
	}
	const slackUS = 0.001 // sub-nanosecond float rounding
	for _, ev := range export.TraceEvents {
		pi, ok := byID[ev.Args["parent_id"]]
		if !ok {
			continue // root (parent is the remote caller's span)
		}
		p := export.TraceEvents[pi]
		if ev.Ts+slackUS < p.Ts || ev.Ts+ev.Dur > p.Ts+p.Dur+slackUS {
			t.Fatalf("event %s [%f,%f] escapes parent %s [%f,%f]",
				ev.Name, ev.Ts, ev.Ts+ev.Dur, p.Name, p.Ts, p.Ts+p.Dur)
		}
	}
}

// TestTraceCoalescedFollower: a concurrent duplicate request coalesces
// onto the leader's computation and its trace shows a singleflight-wait
// span instead of a compute span.
func TestTraceCoalescedFollower(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})
	release := make(chan struct{})
	started := make(chan struct{}, 1)
	s.onJobStart = func() {
		select {
		case started <- struct{}{}:
		default:
		}
		<-release
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	leader := obs.NewTraceContext()
	follower := obs.NewTraceContext()
	send := func(tc obs.TraceContext) (*MapResponse, error) {
		b, _ := json.Marshal(synthReq(96))
		req, _ := http.NewRequest("POST", ts.URL+"/v1/map", bytes.NewReader(b))
		req.Header.Set("traceparent", tc.TraceParent())
		resp, err := ts.Client().Do(req)
		if err != nil {
			return nil, err
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		var mr MapResponse
		if err := json.Unmarshal(body, &mr); err != nil {
			return nil, err
		}
		return &mr, nil
	}

	var wg sync.WaitGroup
	results := make([]*MapResponse, 2)
	errs := make([]error, 2)
	wg.Add(1)
	go func() { defer wg.Done(); results[0], errs[0] = send(leader) }()
	<-started // the leader is parked inside the plan-cache computation
	wg.Add(1)
	go func() { defer wg.Done(); results[1], errs[1] = send(follower) }()
	// Release only after the duplicate has attached to the in-flight call.
	for s.cache.Stats().Coalesced == 0 {
		runtime.Gosched()
	}
	close(release)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	if results[1].Cached != true && results[0].Cached != true {
		t.Fatal("neither request was served from the shared computation")
	}

	leaderTrace, ok1 := s.events.Trace(leader.TraceID.String())
	followerTrace, ok2 := s.events.Trace(follower.TraceID.String())
	if !ok1 || !ok2 {
		t.Fatalf("traces retained: leader=%v follower=%v", ok1, ok2)
	}
	ls, fs := spansByName(leaderTrace), spansByName(followerTrace)
	if len(ls["plancache.compute"]) != 1 || len(ls["plancache.wait"]) != 0 {
		t.Fatalf("leader trace spans: %v", ls)
	}
	if len(fs["plancache.wait"]) != 1 || len(fs["plancache.compute"]) != 0 {
		t.Fatalf("follower trace spans: %v", fs)
	}
	wait := fs["plancache.wait"][0]
	var outcome string
	for _, a := range wait.Attrs {
		if a.Key == "outcome" {
			outcome = a.Value
		}
	}
	if outcome != "shared" {
		t.Fatalf("wait span outcome %q, want shared", outcome)
	}
	// The follower's wait covers (most of) the time it spent blocked.
	if wait.DurationNS <= 0 {
		t.Fatal("wait span has no duration")
	}
}

// TestTraceSimulateHasIosimSpan: /v1/simulate traces include the
// simulator run as its own span.
func TestTraceSimulateHasIosimSpan(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	tc := obs.NewTraceContext()
	b, _ := json.Marshal(SimRequest{MapRequest: synthReq(64)})
	req, _ := http.NewRequest("POST", ts.URL+"/v1/simulate", bytes.NewReader(b))
	req.Header.Set("traceparent", tc.TraceParent())
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	trace, ok := s.events.Trace(tc.TraceID.String())
	if !ok {
		t.Fatal("simulate trace not retained")
	}
	spans := spansByName(trace)
	if len(spans["iosim.run"]) != 1 {
		t.Fatalf("simulate trace lacks iosim.run: %v", spans)
	}
	if len(spans["plancache.compute"]) != 1 {
		t.Fatalf("simulate trace lacks plancache.compute: %v", spans)
	}
}

// TestTraceMinDurationFilterAndErrors covers the /debug/traces query
// surface: min_ms filtering, bad parameters, unknown trace IDs, and the
// disabled-tracing 404.
func TestTraceMinDurationFilterAndErrors(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	postJSON(t, ts.Client(), ts.URL+"/v1/map", synthReq(64))
	var all tracesResponse
	getJSON(t, ts.Client(), ts.URL+"/debug/traces", &all)
	if all.Count != 1 {
		t.Fatalf("count = %d", all.Count)
	}
	var none tracesResponse
	getJSON(t, ts.Client(), ts.URL+"/debug/traces?min_ms=3600000", &none)
	if none.Count != 0 {
		t.Fatalf("hour-long traces: %d", none.Count)
	}
	for path, want := range map[string]int{
		"/debug/traces?min_ms=bogus": http.StatusBadRequest,
		"/debug/traces/nosuchtrace":  http.StatusNotFound,
	} {
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("GET %s: status %d, want %d", path, resp.StatusCode, want)
		}
	}

	// Ring disabled, and tracing with it: debug endpoints 404, no
	// X-Trace-Id header.
	off := newTestServer(t, Config{EventBufferSize: -1})
	tsOff := httptest.NewServer(off.Handler())
	defer tsOff.Close()
	resp, body := postJSON(t, tsOff.Client(), tsOff.URL+"/v1/map", synthReq(64))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("X-Trace-Id") != "" {
		t.Fatal("disabled tracing still sets X-Trace-Id")
	}
	resp, err := tsOff.Client().Get(tsOff.URL + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("disabled /debug/traces: status %d, want 404", resp.StatusCode)
	}
}

// postTraced posts req to path under the caller-minted trace context tc.
func postTraced(t *testing.T, ts *httptest.Server, path string, tc obs.TraceContext, req any) {
	t.Helper()
	b, _ := json.Marshal(req)
	hreq, _ := http.NewRequest("POST", ts.URL+path, bytes.NewReader(b))
	hreq.Header.Set("traceparent", tc.TraceParent())
	resp, err := ts.Client().Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s: status %d: %s", path, resp.StatusCode, body)
	}
}

// TestEventRingBounded drives 10× the ring capacity through the server:
// both list endpoints keep only the newest requests, newest first, count
// every request ever recorded, and the trace-ID index stays as bounded as
// the ring.
func TestEventRingBounded(t *testing.T) {
	const capacity = 16
	s := newTestServer(t, Config{EventBufferSize: capacity})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	ids := make([]string, 10*capacity)
	for i := range ids {
		tc := obs.NewTraceContext()
		ids[i] = tc.TraceID.String()
		postTraced(t, ts, "/v1/map", tc, synthReq(64))
		s.events.mu.Lock()
		indexed := len(s.events.byTrace)
		s.events.mu.Unlock()
		if indexed > capacity {
			t.Fatalf("after %d requests the trace-ID index holds %d entries, want <= %d", i+1, indexed, capacity)
		}
	}

	var er eventsResponse
	getJSON(t, ts.Client(), ts.URL+"/debug/events", &er)
	var tl tracesResponse
	getJSON(t, ts.Client(), ts.URL+"/debug/traces", &tl)
	for _, got := range []ringList{er.ringList, tl.ringList} {
		if got.Count != capacity || got.Capacity != capacity || got.Total != 10*capacity || got.Truncated {
			t.Fatalf("ring envelope %+v, want count %d of %d recorded", got, capacity, 10*capacity)
		}
	}
	for i := 0; i < capacity; i++ {
		want := ids[len(ids)-1-i]
		if er.Events[i].TraceID != want || tl.Traces[i].TraceID != want {
			t.Fatalf("entry %d: event %s, trace %s; want the newest-first %s",
				i, er.Events[i].TraceID, tl.Traces[i].TraceID, want)
		}
	}
	resp, err := ts.Client().Get(ts.URL + "/debug/traces/" + ids[0])
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("oldest, overwritten trace: status %d, want 404", resp.StatusCode)
	}
}

// TestTraceByIDNewestWins: two requests sharing one traceparent resolve
// to the newer one's trace.
func TestTraceByIDNewestWins(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	tc := obs.NewTraceContext()
	postTraced(t, ts, "/v1/map", tc, synthReq(64))
	postTraced(t, ts, "/v1/simulate", tc, SimRequest{MapRequest: synthReq(64)})
	trace, ok := s.events.Trace(tc.TraceID.String())
	if !ok || trace.Root != "POST /v1/simulate" {
		t.Fatalf("trace for a repeated ID = %+v, %v; want the newer simulate request", trace, ok)
	}
}

// TestAccessAndSlowRequestLog: the structured access log carries the
// trace ID, and requests above the slow threshold log a Warn line with
// the span breakdown.
func TestAccessAndSlowRequestLog(t *testing.T) {
	var mu sync.Mutex
	var buf bytes.Buffer
	logger := slog.New(slog.NewTextHandler(&syncWriter{mu: &mu, w: &buf}, nil))
	s := newTestServer(t, Config{Logger: logger, SlowRequestThreshold: time.Nanosecond})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, _ := postJSON(t, ts.Client(), ts.URL+"/v1/map", synthReq(64))
	traceID := resp.Header.Get("X-Trace-Id")
	if traceID == "" {
		t.Fatal("no X-Trace-Id")
	}

	mu.Lock()
	out := buf.String()
	mu.Unlock()
	for _, want := range []string{
		`msg=request`, `method=POST`, `path=/v1/map`, `status=200`,
		"trace_id=" + traceID,
		`msg="slow request"`, "plancache.compute=",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("log missing %q:\n%s", want, out)
		}
	}
	if s.slowRequests.Value() != 1 {
		t.Errorf("slow request counter = %d", s.slowRequests.Value())
	}
}

type syncWriter struct {
	mu *sync.Mutex
	w  io.Writer
}

func (s *syncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}

// TestMetricsIncludeRuntimeAndCacheCounters: the exposition carries the
// lazily sampled runtime gauges and the new plan-cache counters.
func TestMetricsIncludeRuntimeAndCacheCounters(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	postJSON(t, ts.Client(), ts.URL+"/v1/map", synthReq(64))
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	out := string(body)
	for _, want := range []string{
		"cachemapd_plan_cache_evictions_total 0",
		"cachemapd_plan_cache_coalesced_waiters_total 0",
		"cachemapd_plan_cache_leader_reelections_total 0",
		"cachemapd_slow_requests_total 0",
		"# TYPE cachemapd_goroutines gauge",
		"# TYPE cachemapd_gomaxprocs gauge",
		"# TYPE cachemapd_heap_live_bytes gauge",
		"# TYPE cachemapd_gc_pause_cpu_seconds_total counter",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	// The sampled values are live, not stuck at zero.
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "cachemapd_goroutines ") {
			if strings.TrimPrefix(line, "cachemapd_goroutines ") == "0" {
				t.Errorf("goroutine gauge sampled as 0: %q", line)
			}
		}
		if strings.HasPrefix(line, "cachemapd_gomaxprocs ") {
			if strings.TrimPrefix(line, "cachemapd_gomaxprocs ") == "0" {
				t.Errorf("gomaxprocs gauge sampled as 0: %q", line)
			}
		}
	}
}
