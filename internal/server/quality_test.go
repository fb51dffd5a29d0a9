package server

import (
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/quality"
)

// namedSynthReq builds a map request in the given workload family.
func namedSynthReq(name string, extent int64) MapRequest {
	r := synthReq(extent)
	r.Workload.Synth.Name = name
	return r
}

func getDebugJSON(t *testing.T, url string, v any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if v != nil && resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(body, v); err != nil {
			t.Fatalf("decoding %s: %v", body, err)
		}
	}
	return resp
}

// waitForQuality polls /debug/events until n events carry a backfilled
// quality verdict (the sampler worker is asynchronous by design).
func waitForQuality(t *testing.T, base string, n int) []Event {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		var er eventsResponse
		getDebugJSON(t, base+"/debug/events", &er)
		var got []Event
		for _, ev := range er.Events {
			if ev.Quality != nil {
				got = append(got, ev)
			}
		}
		if len(got) >= n {
			return got
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d events gained a quality verdict: %+v", len(got), n, er.Events)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestQualityTelemetryEndToEnd(t *testing.T) {
	s := newTestServer(t, Config{QualitySampleRate: 1})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// One cold compute, one cache hit: two serve modes in the ledger.
	for i := 0; i < 2; i++ {
		resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/map", synthReq(128))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
	}
	evs := waitForQuality(t, ts.URL, 2)

	modes := map[string]bool{}
	for _, ev := range evs {
		if !ev.QualitySampled {
			t.Fatalf("event with verdict not marked sampled: %+v", ev)
		}
		if ev.Family != "t" {
			t.Fatalf("family = %q, want t", ev.Family)
		}
		if ev.Quality.Err != "" {
			t.Fatalf("shadow sim error: %s", ev.Quality.Err)
		}
		if len(ev.Quality.MissRates) == 0 {
			t.Fatalf("no miss rates: %+v", ev.Quality)
		}
		for _, mr := range ev.Quality.MissRates {
			if math.IsNaN(mr) || mr < 0 || mr > 1 {
				t.Fatalf("miss rate %v out of range", mr)
			}
		}
		modes[ev.Mode] = true
	}
	if !modes[quality.ModeFull] || !modes[quality.ModeCached] {
		t.Fatalf("serve modes = %v, want full and cached", modes)
	}

	// The ledger view mirrors the events, keyed family/mode.
	var qr qualityResponse
	getDebugJSON(t, ts.URL+"/debug/quality", &qr)
	if qr.SampleRate != 1 {
		t.Fatalf("sample_rate = %v", qr.SampleRate)
	}
	if qr.Sampler.Sampled < 2 {
		t.Fatalf("sampled = %d, want >= 2", qr.Sampler.Sampled)
	}
	for _, mode := range []string{quality.ModeFull, quality.ModeCached} {
		st, ok := qr.Ledger["t"][mode]
		if !ok || st.Samples == 0 {
			t.Fatalf("ledger missing family t mode %s: %+v", mode, qr.Ledger)
		}
		if len(st.MissRates) == 0 || math.IsNaN(st.MissRates[0]) {
			t.Fatalf("ledger mode %s has no finite miss rates: %+v", mode, st)
		}
	}
	if qr.PlanCache.Hits < 1 || qr.PlanCache.HitRatio <= 0 {
		t.Fatalf("plan cache stats: %+v", qr.PlanCache)
	}

	// Per-mode gauges and sampler counters surface in /metrics.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mb, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	mtext := string(mb)
	for _, want := range []string{
		`cachemapd_plan_quality_missrate{level="L1",mode="full"}`,
		`cachemapd_plan_quality_missrate{level="L1",mode="cached"}`,
		"cachemapd_quality_sampled_total",
		"cachemapd_quality_overflow_total",
	} {
		if !strings.Contains(mtext, want) {
			t.Fatalf("metrics missing %s", want)
		}
	}

	// The request-duration exemplar carries a trace ID that resolves to a
	// retained trace.
	m := regexp.MustCompile(`cachemapd_request_duration_seconds_bucket\{[^}]*\} \d+ # \{trace_id="([0-9a-f]+)"\}`).FindStringSubmatch(mtext)
	if m == nil {
		t.Fatalf("no exemplar on request duration histogram:\n%s", mtext)
	}
	if resp := getDebugJSON(t, ts.URL+"/debug/traces/"+m[1], nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("exemplar trace %s did not resolve: %d", m[1], resp.StatusCode)
	}
}

func TestQualityDegradedModeSampled(t *testing.T) {
	// Shed everything after warming the stale tier: the degraded fallback
	// path must feed the ledger under its own mode.
	s := newTestServer(t, Config{
		Workers:             1,
		Degraded:            true,
		AdmissionQueueDepth: -1,
		QualitySampleRate:   1,
	})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req := namedSynthReq("deg", 256)
	if resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/map", req); resp.StatusCode != http.StatusOK {
		t.Fatalf("warm-up status %d: %s", resp.StatusCode, body)
	}

	// Occupy the single worker, then issue a map that must degrade. The
	// started handshake ensures the blocker holds the worker slot before
	// any drifted request can race it to the semaphore.
	release := make(chan struct{})
	started := make(chan struct{}, 1)
	var wg sync.WaitGroup
	s.onJobStart = func() {
		select {
		case started <- struct{}{}:
		default:
		}
		<-release
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		postJSON(t, ts.Client(), ts.URL+"/v1/map", namedSynthReq("blocker", 512))
	}()
	<-started
	deadline := time.Now().Add(5 * time.Second)
	var degradedSeen string
	for degradedSeen == "" {
		drifted := req
		drifted.Topology = "1/2/4@16,8,5"
		resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/map", drifted)
		var mr MapResponse
		json.Unmarshal(body, &mr)
		if resp.StatusCode == http.StatusOK && mr.Degraded != "" {
			degradedSeen = mr.Degraded
		}
		if time.Now().After(deadline) {
			t.Fatalf("no degraded response before deadline (last %d: %s)", resp.StatusCode, body)
		}
	}
	close(release)
	wg.Wait()

	wantMode := quality.ModeDegradedStale
	if degradedSeen == DegradedFallback {
		wantMode = quality.ModeDegradedFallback
	}
	ok := false
	pollDeadline := time.Now().Add(5 * time.Second)
	for !ok && time.Now().Before(pollDeadline) {
		var qr qualityResponse
		getDebugJSON(t, ts.URL+"/debug/quality", &qr)
		if st, found := qr.Ledger["deg"][wantMode]; found && st.Samples > 0 && st.Errors == 0 {
			ok = true
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !ok {
		t.Fatalf("ledger never recorded mode %s for family deg", wantMode)
	}
}

func TestQualityDisabledIsInert(t *testing.T) {
	s := newTestServer(t, Config{})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if s.sampler.Active() {
		t.Fatal("rate-0 sampler reports active")
	}
	if resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/map", synthReq(64)); resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var qr qualityResponse
	getDebugJSON(t, ts.URL+"/debug/quality", &qr)
	if qr.SampleRate != 0 || qr.Sampler.Sampled != 0 {
		t.Fatalf("inert sampler reported work: %+v", qr)
	}
	if len(qr.Ledger) != 0 {
		t.Fatalf("inert ledger non-empty: %+v", qr.Ledger)
	}
	// The wide event still records the request, unsampled.
	var er eventsResponse
	getDebugJSON(t, ts.URL+"/debug/events?family=t", &er)
	if er.Count != 1 || er.Events[0].QualitySampled {
		t.Fatalf("events with sampling off: %+v", er)
	}
}

func TestDebugEventsFiltersAndLimit(t *testing.T) {
	s := newTestServer(t, Config{})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for i := 0; i < 3; i++ {
		postJSON(t, ts.Client(), ts.URL+"/v1/map", namedSynthReq("fa", 64))
	}
	postJSON(t, ts.Client(), ts.URL+"/v1/map", namedSynthReq("fb", 64))

	var er eventsResponse
	getDebugJSON(t, ts.URL+"/debug/events?family=fa", &er)
	if er.Count != 3 {
		t.Fatalf("family filter: %d events, want 3", er.Count)
	}
	getDebugJSON(t, ts.URL+"/debug/events?family=fa&limit=2", &er)
	if er.Count != 2 || !er.Truncated {
		t.Fatalf("limit: %d events, truncated %v; want 2, true", er.Count, er.Truncated)
	}
	er = eventsResponse{}
	getDebugJSON(t, ts.URL+"/debug/events?family=fa&limit=3", &er)
	if er.Count != 3 || er.Truncated {
		t.Fatalf("limit that cuts nothing: %d events, truncated %v; want 3, false", er.Count, er.Truncated)
	}
	getDebugJSON(t, ts.URL+"/debug/events?mode=cached", &er)
	if er.Count != 2 { // two repeat requests hit the cache
		t.Fatalf("mode filter: %d events, want 2", er.Count)
	}
	for _, ev := range er.Events {
		if ev.Mode != quality.ModeCached || ev.CacheKey == "" {
			t.Fatalf("mode-filtered event: %+v", ev)
		}
	}
	getDebugJSON(t, ts.URL+"/debug/events?min_ms=999999", &er)
	if er.Count != 0 {
		t.Fatalf("min_ms filter: %d events, want 0", er.Count)
	}
	if resp := getDebugJSON(t, ts.URL+"/debug/events?limit=-1", nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("negative limit accepted: %d", resp.StatusCode)
	}

	// Stage timings and mode annotations ride the event.
	getDebugJSON(t, ts.URL+"/debug/events?mode=full&family=fa", &er)
	if er.Count != 1 {
		t.Fatalf("full-mode fa events: %d, want 1", er.Count)
	}
	if len(er.Events[0].StageMS) == 0 {
		t.Fatalf("cold event missing stage timings: %+v", er.Events[0])
	}
}

// TestCachedEventHasNoStageMS: a hit's wide event carries no stage_ms,
// because no stage ran on that request, while the hit's response keeps
// the stages of the plan's original computation.
func TestCachedEventHasNoStageMS(t *testing.T) {
	s := newTestServer(t, Config{})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	postJSON(t, ts.Client(), ts.URL+"/v1/map", namedSynthReq("hit", 64))
	_, body := postJSON(t, ts.Client(), ts.URL+"/v1/map", namedSynthReq("hit", 64))
	var hit MapResponse
	if err := json.Unmarshal(body, &hit); err != nil {
		t.Fatal(err)
	}
	if !hit.Cached || len(hit.Stages) == 0 {
		t.Fatalf("repeat request: cached %v, %d stages; want a hit with the origin's stages", hit.Cached, len(hit.Stages))
	}
	for mode, want := range map[string]bool{quality.ModeFull: true, quality.ModeCached: false} {
		var er eventsResponse
		getDebugJSON(t, ts.URL+"/debug/events?family=hit&mode="+mode, &er)
		if er.Count != 1 {
			t.Fatalf("%s events: %d, want 1", mode, er.Count)
		}
		if got := len(er.Events[0].StageMS) > 0; got != want {
			t.Errorf("%s event has stage_ms %v, want %v", mode, er.Events[0].StageMS, want)
		}
	}
}

func TestDebugTracesLimitAndBound(t *testing.T) {
	s := newTestServer(t, Config{})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for i := 0; i < 4; i++ {
		postJSON(t, ts.Client(), ts.URL+"/v1/map", synthReq(64))
	}
	resp, _ := postJSON(t, ts.Client(), ts.URL+"/v1/map", namedSynthReq("other", 64))
	otherID := resp.Header.Get("X-Trace-Id")
	var limited tracesResponse
	getDebugJSON(t, ts.URL+"/debug/traces?limit=2", &limited)
	if limited.Count != 2 || !limited.Truncated {
		t.Fatalf("limit=2: count %d truncated %v", limited.Count, limited.Truncated)
	}
	var full tracesResponse
	getDebugJSON(t, ts.URL+"/debug/traces", &full)
	if full.Count < 4 || full.Truncated {
		t.Fatalf("unlimited: count %d truncated %v", full.Count, full.Truncated)
	}
	// Traces take the event filters: the family picks one request's trace.
	var family tracesResponse
	getDebugJSON(t, ts.URL+"/debug/traces?family=other", &family)
	if family.Count != 1 || family.Traces[0].TraceID != otherID {
		t.Fatalf("family=other: count %d, want the one trace %s: %+v", family.Count, otherID, family.Traces)
	}
}

func TestBoundJSONList(t *testing.T) {
	items := []string{strings.Repeat("a", 100), strings.Repeat("b", 100), strings.Repeat("c", 100)}
	kept, cut := boundJSONList(items, 250)
	if len(kept) != 2 || !cut {
		t.Fatalf("kept %d cut %v, want 2 true", len(kept), cut)
	}
	kept, cut = boundJSONList(items, 1<<20)
	if len(kept) != 3 || cut {
		t.Fatalf("kept %d cut %v, want 3 false", len(kept), cut)
	}
}

func TestLogSampling(t *testing.T) {
	var mu sync.Mutex
	counts := map[string]int{}
	logger := slog.New(slog.NewTextHandler(writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		switch {
		case strings.Contains(string(p), "msg=request"):
			counts["request"]++
		}
		return len(p), nil
	}), nil))

	s := newTestServer(t, Config{Logger: logger, LogSampleRate: -1}) // sample no OK lines
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for i := 0; i < 5; i++ {
		postJSON(t, ts.Client(), ts.URL+"/v1/map", synthReq(64))
	}
	mu.Lock()
	okLines := counts["request"]
	mu.Unlock()
	if okLines != 0 {
		t.Fatalf("%d 200-OK access-log lines at sample rate 0", okLines)
	}

	// Errors always log, whatever the rate.
	http.Post(ts.URL+"/v1/map", "application/json", strings.NewReader("{"))
	mu.Lock()
	errLines := counts["request"]
	mu.Unlock()
	if errLines != 1 {
		t.Fatalf("error line count = %d, want 1", errLines)
	}
}

// writerFunc adapts a function to io.Writer.
type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

func TestQualityFleetView(t *testing.T) {
	r := newTestRing(t, 3, func(i int, cfg *Config) {
		cfg.QualitySampleRate = 1
	})
	for _, s := range r.servers {
		defer s.Close()
	}

	// Serve one family per node so each ledger holds distinct entries.
	for i := 0; i < 3; i++ {
		resp, _, body := r.post(t, i, namedSynthReq(fmt.Sprintf("fam%d", i), 64+int64(i)*32))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("node %d status %d: %s", i, resp.StatusCode, body)
		}
	}

	// The fleet view from any node eventually merges all three ledgers.
	deadline := time.Now().Add(5 * time.Second)
	for {
		var qr qualityResponse
		getDebugJSON(t, r.https[0].URL+"/debug/quality", &qr)
		if len(qr.Fleet) != 3 {
			t.Fatalf("fleet size %d, want 3 (partial=%v)", len(qr.Fleet), qr.Partial)
		}
		if qr.Partial {
			t.Fatalf("fleet view partial: %+v", qr.Fleet)
		}
		if qr.Fleet[0].Node != r.addrs[0] {
			t.Fatalf("fleet[0] = %q, want self %q", qr.Fleet[0].Node, r.addrs[0])
		}
		families := map[string]bool{}
		for _, n := range qr.Fleet {
			if n.Error != "" {
				t.Fatalf("peer %s errored: %s", n.Node, n.Error)
			}
			for fam := range n.Ledger {
				families[fam] = true
			}
		}
		// A peer-filled plan may land a family's sample on either the
		// requester or the owner; all three families must appear somewhere.
		if families["fam0"] && families["fam1"] && families["fam2"] {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("fleet ledgers never converged: %v", families)
		}
		time.Sleep(20 * time.Millisecond)
	}

	// ?local=1 answers without fan-out.
	var lr qualityResponse
	getDebugJSON(t, r.https[1].URL+"/debug/quality?local=1", &lr)
	if len(lr.Fleet) != 0 {
		t.Fatalf("?local=1 still fanned out: %d fleet entries", len(lr.Fleet))
	}
	if lr.Node != r.addrs[1] {
		t.Fatalf("local node = %q, want %q", lr.Node, r.addrs[1])
	}
}
