package server

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/quality"
)

// TestHandlerPanicIs500 panics once inside a /v1/map job: the request gets
// a 500 with a generic body, the panic is counted under its route and put
// on the wide event, and the next request is served normally. A panic of
// http.ErrAbortHandler keeps net/http's meaning: the response is aborted
// and nothing is counted.
func TestHandlerPanicIs500(t *testing.T) {
	s := newTestServer(t, Config{})
	defer s.Close()
	var calls atomic.Int32
	s.onJobStart = func() {
		switch calls.Add(1) {
		case 1:
			panic("leader boom")
		case 2:
			panic(http.ErrAbortHandler)
		}
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/map", synthReq(64))
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicking job: status %d, want 500: %s", resp.StatusCode, body)
	}
	if got := strings.TrimSpace(string(body)); got != `{"error":"internal error"}` {
		t.Fatalf("panicking job: body %s, want the generic error", got)
	}
	if got := metricValue(t, ts, `cachemapd_panics_total{site="/v1/map"}`); got != 1 {
		t.Fatalf(`cachemapd_panics_total{site="/v1/map"} = %v, want 1`, got)
	}
	var er eventsResponse
	getDebugJSON(t, ts.URL+"/debug/events", &er)
	if er.Count != 1 || er.Events[0].Status != http.StatusInternalServerError ||
		er.Events[0].Error != "panic: leader boom" {
		t.Fatalf("the panic's event: %+v", er.Events)
	}

	b, _ := json.Marshal(synthReq(64))
	if resp, err := ts.Client().Post(ts.URL+"/v1/map", "application/json", bytes.NewReader(b)); err == nil {
		resp.Body.Close()
		t.Fatalf("http.ErrAbortHandler: status %d, want an aborted response", resp.StatusCode)
	}
	if got := metricValue(t, ts, `cachemapd_panics_total{site="/v1/map"}`); got != 1 {
		t.Fatalf("http.ErrAbortHandler was counted as a panic: %v", got)
	}

	if resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/map", synthReq(64)); resp.StatusCode != http.StatusOK {
		t.Fatalf("request after the panics: status %d: %s", resp.StatusCode, body)
	}
}

// TestBatchSiblingPanic panics in both siblings of a three-spec batch
// family while they run side by side, so one of them runs on a worker
// goroutine of the fan-out: the panic must come back to the request's
// goroutine and answer the batch with a 500, instead of ending the
// process, and the next batch must be served.
func TestBatchSiblingPanic(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})
	defer s.Close()
	var calls atomic.Int32
	bothRunning := make(chan struct{})
	s.onJobStart = func() {
		switch calls.Add(1) {
		case 2: // the first sibling waits for the second
			select {
			case <-bothRunning:
			case <-time.After(5 * time.Second):
			}
			panic("sibling boom")
		case 3:
			close(bothRunning)
			panic("sibling boom")
		}
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var reqs []MapRequest
	for _, topo := range []string{"2/4/8@16,8,4", "2/4/8@16,8,5", "2/4/8@16,8,3"} {
		r := synthReq(128)
		r.Topology = topo
		reqs = append(reqs, r)
	}
	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/map/batch", batchOf(reqs...))
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("batch with panicking siblings: status %d, want 500: %s", resp.StatusCode, body)
	}
	if got := metricValue(t, ts, `cachemapd_panics_total{site="/v1/map/batch"}`); got != 1 {
		t.Fatalf(`cachemapd_panics_total{site="/v1/map/batch"} = %v, want 1`, got)
	}

	resp, body = postJSON(t, ts.Client(), ts.URL+"/v1/map/batch", batchOf(reqs...))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch after the panic: status %d: %s", resp.StatusCode, body)
	}
	var br BatchMapResponse
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatal(err)
	}
	if br.Errors != 0 || br.CachedN != 1 || br.Incremental != 2 {
		t.Fatalf("batch after the panic: %d errors, %d cached, %d incremental; want 0, 1, 2: %s",
			br.Errors, br.CachedN, br.Incremental, body)
	}
}

// TestSimulateRepairedMode: a /v1/simulate whose plan was repaired from a
// near-miss clustering is recorded as incremental on its wide event, as
// /v1/map records it, not as a full compute.
func TestSimulateRepairedMode(t *testing.T) {
	s := newTestServer(t, Config{Repair: RepairConfig{Enabled: true}})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/map", synthReq(128)); resp.StatusCode != http.StatusOK {
		t.Fatalf("prime: status %d: %s", resp.StatusCode, body)
	}
	near := synthReq(128)
	near.Topology = "1/2/4@16,8,5"
	if resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/simulate", SimRequest{MapRequest: near}); resp.StatusCode != http.StatusOK {
		t.Fatalf("near-miss simulate: status %d: %s", resp.StatusCode, body)
	}
	if got := metricValue(t, ts, "cachemapd_repair_lookup_hits_total"); got != 1 {
		t.Fatalf("repair_lookup_hits_total = %v, want 1", got)
	}
	var er eventsResponse
	getDebugJSON(t, ts.URL+"/debug/events?mode="+quality.ModeIncremental, &er)
	if er.Count != 1 || er.Events[0].Path != "/v1/simulate" {
		t.Fatalf("events with mode=%s: %+v, want the simulate request", quality.ModeIncremental, er.Events)
	}
}

// TestBackgroundPanicCounted: the report the quality sampler and the
// plan-store writer get for a panic they recover counts it under its site
// in cachemapd_panics_total and logs its value and stack.
func TestBackgroundPanicCounted(t *testing.T) {
	var mu sync.Mutex
	var logs bytes.Buffer
	s := newTestServer(t, Config{Logger: slog.New(slog.NewTextHandler(&syncWriter{mu: &mu, w: &logs}, nil))})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	s.backgroundPanic("quality")("record boom", []byte("stack of the sampler"))
	s.backgroundPanic("planstore")("encode boom", []byte("stack of the writer"))
	for _, site := range []string{"quality", "planstore"} {
		if got := metricValue(t, ts, `cachemapd_panics_total{site="`+site+`"}`); got != 1 {
			t.Errorf(`cachemapd_panics_total{site=%q} = %v, want 1`, site, got)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	for _, want := range []string{
		`site=quality panic="record boom" stack="stack of the sampler"`,
		`site=planstore panic="encode boom" stack="stack of the writer"`,
	} {
		if !strings.Contains(logs.String(), want) {
			t.Errorf("log missing %q:\n%s", want, logs.String())
		}
	}
}
