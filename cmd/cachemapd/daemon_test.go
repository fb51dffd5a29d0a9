package main

// Process tests: each builds the real cachemapd (and, where a scenario
// drives load, cmd/loadgen) once per test binary, boots it on an
// ephemeral loopback port through startDaemon, and asserts on its HTTP
// answers, /metrics, its log and its exit status.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/server"
	"repro/internal/workloads"
)

// binDir holds the binaries the tests build; TestMain removes it.
var binDir string

// builds memoizes one `go build` per command of this module.
var builds = map[string]*struct {
	once sync.Once
	out  []byte
	err  error
}{"cachemapd": {}, "loadgen": {}}

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "cachemapd-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	binDir = dir
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// binary builds repro/cmd/<name> once per test binary and returns its path.
func binary(t *testing.T, name string) string {
	t.Helper()
	path := filepath.Join(binDir, name)
	b := builds[name]
	b.once.Do(func() {
		b.out, b.err = exec.Command("go", "build", "-o", path, "repro/cmd/"+name).CombinedOutput()
	})
	if b.err != nil {
		t.Fatalf("building %s: %v\n%s", name, b.err, b.out)
	}
	return path
}

// daemon is one cachemapd process started by startDaemon.
type daemon struct {
	addr string // the public listener's bound address
	cmd  *exec.Cmd
	log  string        // file holding the process's stdout and stderr
	done chan struct{} // closed once the process is reaped
	err  error         // cmd.Wait's result, valid once done is closed
}

// startDaemon boots cachemapd with flags on an ephemeral loopback port (a
// -addr among flags overrides it) and returns once the daemon has logged
// its bound address and answers /healthz. The process is killed when the
// test ends, and its log is dumped if the test failed.
func startDaemon(t *testing.T, flags ...string) *daemon {
	t.Helper()
	d := &daemon{log: filepath.Join(t.TempDir(), "cachemapd.log"), done: make(chan struct{})}
	logFile, err := os.Create(d.log)
	if err != nil {
		t.Fatal(err)
	}
	d.cmd = exec.Command(binary(t, "cachemapd"), append([]string{"-addr", "127.0.0.1:0"}, flags...)...)
	d.cmd.Stdout, d.cmd.Stderr = logFile, logFile
	if err := d.cmd.Start(); err != nil {
		logFile.Close()
		t.Fatal(err)
	}
	go func() {
		d.err = d.cmd.Wait()
		logFile.Close()
		close(d.done)
	}()
	t.Cleanup(func() {
		d.cmd.Process.Kill()
		<-d.done
		if t.Failed() {
			t.Logf("--- cachemapd %s log ---\n%s", strings.Join(flags, " "), d.logText())
		}
	})
	deadline := time.Now().Add(10 * time.Second)
	for d.addr == "" || !d.healthy() {
		select {
		case <-d.done:
			t.Fatalf("cachemapd %v exited during startup: %v", flags, d.err)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("cachemapd %v never came up (listen address %q)", flags, d.addr)
		}
		time.Sleep(20 * time.Millisecond)
		d.addr = d.logAddr("listening")
	}
	return d
}

func (d *daemon) healthy() bool {
	resp, err := http.Get(d.url("/healthz"))
	if err != nil {
		return false
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

func (d *daemon) logText() string {
	b, _ := os.ReadFile(d.log)
	return string(b)
}

// logAddr returns the addr attribute of the first log line whose message
// is msg, or "" before the daemon has logged it.
func (d *daemon) logAddr(msg string) string {
	re := regexp.MustCompile(`msg="?` + regexp.QuoteMeta(msg) + `"? addr=(\S+)`)
	if m := re.FindStringSubmatch(d.logText()); m != nil {
		return m[1]
	}
	return ""
}

// stop sends sig to the daemon and returns its exit error once it is gone.
func (d *daemon) stop(t *testing.T, sig os.Signal) error {
	t.Helper()
	if err := d.cmd.Process.Signal(sig); err != nil {
		t.Fatal(err)
	}
	select {
	case <-d.done:
	case <-time.After(30 * time.Second):
		t.Fatalf("cachemapd did not exit after %v", sig)
	}
	return d.err
}

func (d *daemon) url(path string) string { return "http://" + d.addr + path }

// fetch sends req and returns the response with its body read.
func fetch(t *testing.T, req *http.Request) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", req.Method, req.URL, err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("%s %s: reading body: %v", req.Method, req.URL, err)
	}
	return resp, body
}

// post sends body, JSON-encoded, to path.
func (d *daemon) post(t *testing.T, path string, body any) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, d.url(path), bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	return fetch(t, req)
}

func (d *daemon) get(t *testing.T, path string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, d.url(path), nil)
	if err != nil {
		t.Fatal(err)
	}
	return fetch(t, req)
}

// getJSON decodes a 200 answer from path into v.
func (d *daemon) getJSON(t *testing.T, path string, v any) {
	t.Helper()
	resp, body := d.get(t, path)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d: %s", path, resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, v); err != nil {
		t.Fatalf("GET %s: decoding %s: %v", path, body, err)
	}
}

// metric scrapes one exposition value; an absent series reads as 0.
func (d *daemon) metric(t *testing.T, series string) float64 {
	t.Helper()
	_, body := d.get(t, "/metrics")
	for _, line := range strings.Split(string(body), "\n") {
		if rest, ok := strings.CutPrefix(line, series+" "); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err != nil {
				t.Fatalf("bad sample %q: %v", line, err)
			}
			return v
		}
	}
	return 0
}

// eventually polls cond until it holds, failing the test after 5 s.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(20 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// runLoadgen runs cmd/loadgen with args and returns its output, failing
// the test on a non-zero exit.
func runLoadgen(t *testing.T, args ...string) string {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	out, err := exec.CommandContext(ctx, binary(t, "loadgen"), args...).CombinedOutput()
	if err != nil {
		t.Fatalf("loadgen %s: %v\n%s", strings.Join(args, " "), err, out)
	}
	return string(out)
}

// synthReq is a small synthetic mapping request under the inter scheme.
func synthReq(name, topo string, extent int64) server.MapRequest {
	return server.MapRequest{
		Workload: server.WorkloadSpec{Synth: &workloads.SynthSpec{
			Name:    name,
			Passes:  2,
			Extent:  extent,
			Streams: []workloads.StreamSpec{{Stride: 1}},
		}},
		Topology: topo,
		Scheme:   "inter",
	}
}

// postAsync sends req to /v1/map in the background; the channel yields
// the response status, or 0 on a transport error.
func (d *daemon) postAsync(req server.MapRequest) <-chan int {
	status := make(chan int, 1)
	b, _ := json.Marshal(req)
	go func() {
		resp, err := http.Post(d.url("/v1/map"), "application/json", bytes.NewReader(b))
		if err != nil {
			status <- 0
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		status <- resp.StatusCode
	}()
	return status
}

// chromeTrace reports whether the Chrome export of trace id holds a
// complete (ph X) event.
func (d *daemon) chromeTrace(t *testing.T, id string) bool {
	t.Helper()
	var chrome struct {
		TraceEvents []struct {
			Ph string `json:"ph"`
		} `json:"traceEvents"`
	}
	d.getJSON(t, "/debug/traces/"+id, &chrome)
	for _, ev := range chrome.TraceEvents {
		if ev.Ph == "X" {
			return true
		}
	}
	return false
}

// TestDaemonTracing: a caller-minted traceparent comes back out as
// X-Trace-Id, in /debug/traces and as a Chrome export; pprof answers on
// the private -debug-addr listener; -slow logs the slow request.
func TestDaemonTracing(t *testing.T) {
	t.Parallel()
	d := startDaemon(t, "-debug-addr", "127.0.0.1:0", "-mutex-fraction", "5", "-slow", "1us")
	debugAddr := d.logAddr("pprof listening")
	if debugAddr == "" {
		t.Fatal("cachemapd never logged its pprof address")
	}

	const traceID = "4bf92f3577b34da6a3ce929d0e0e4736"
	b, _ := json.Marshal(synthReq("ci", "2/4/8@16,8,4", 256))
	req, _ := http.NewRequest(http.MethodPost, d.url("/v1/map"), bytes.NewReader(b))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("traceparent", "00-"+traceID+"-00f067aa0ba902b7-01")
	resp, body := fetch(t, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/map: %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Trace-Id"); got != traceID {
		t.Fatalf("X-Trace-Id = %q, want the caller's trace ID %s", got, traceID)
	}

	eventually(t, "the trace in /debug/traces", func() bool {
		var list struct {
			Traces []struct {
				TraceID string `json:"trace_id"`
			} `json:"traces"`
		}
		d.getJSON(t, "/debug/traces", &list)
		for _, tr := range list.Traces {
			if tr.TraceID == traceID {
				return true
			}
		}
		return false
	})
	if !d.chromeTrace(t, traceID) {
		t.Fatalf("Chrome export of %s has no complete (ph X) events", traceID)
	}

	resp, err := http.Get("http://" + debugAddr + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof on -debug-addr: %d", resp.StatusCode)
	}
	eventually(t, `a "slow request" log line under -slow 1us`, func() bool {
		return strings.Contains(d.logText(), "slow request")
	})
}

// TestDaemonBatchAndDrift: a batch of 8 specs of one workload family runs
// the pipeline prefix once — the leader in full, six near-miss siblings
// repaired from its clustering, the leader's duplicate a cache hit — and
// loadgen -drift against the same -repair daemon records repairs.
func TestDaemonBatchAndDrift(t *testing.T) {
	t.Parallel()
	d := startDaemon(t, "-repair")
	var batch server.BatchMapRequest
	for _, topo := range []string{"2/4/8@16,8,4", "2/4/8@16,8,5", "2/4/8@16,8,3", "2/4/8@16,9,4",
		"2/4/8@16,7,4", "2/4/8@14,8,4", "2/4/10@16,8,4", "2/4/8@16,8,4"} {
		batch.Requests = append(batch.Requests, synthReq("batch-ci", topo, 256))
	}
	resp, body := d.post(t, "/v1/map/batch", batch)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/map/batch: %d: %s", resp.StatusCode, body)
	}
	var br server.BatchMapResponse
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatalf("decoding %s: %v", body, err)
	}
	if br.Families != 1 || br.Full != 1 || br.Incremental != 6 || br.CachedN != 1 || br.Errors != 0 {
		t.Fatalf("batch mix: families %d, full %d, incremental %d, cached %d, errors %d; want 1/1/6/1/0",
			br.Families, br.Full, br.Incremental, br.CachedN, br.Errors)
	}
	wantReused := []string{"tags", "chunks", "similarity", "cluster"}
	if !slices.ContainsFunc(br.Results, func(r server.BatchResult) bool {
		return r.MapResponse != nil && r.Replanned == server.ReplanIncremental && slices.Equal(r.ReusedStages, wantReused)
	}) {
		t.Fatalf("no incremental result reusing %v: %s", wantReused, body)
	}
	for _, stage := range []string{"tags", "similarity"} {
		if runs := d.metric(t, `cachemapd_pipeline_stage_runs_total{stage="`+stage+`"}`); runs != 1 {
			t.Fatalf("stage %s ran %v times for an 8-spec single-family batch, want 1", stage, runs)
		}
	}

	out := runLoadgen(t, "-drift", "0.2", "-base", d.url(""), "-n", "80", "-c", "8", "-specs", "4")
	if !strings.Contains(out, "replanned:") {
		t.Fatalf("loadgen -drift printed no replan mix:\n%s", out)
	}
	if incr := d.metric(t, `cachemapd_replan_total{outcome="incremental"}`); incr < 7 {
		t.Fatalf("cachemapd_replan_total{outcome=incremental} = %v after batch + drift, want >= 7", incr)
	}
}

// TestDaemonChaos: a deliberately overloadable daemon (2 workers, a tiny
// admission queue, degraded serving, armed faults) passes loadgen -chaos
// within its p99 budget, and the injector really fired during the run.
func TestDaemonChaos(t *testing.T) {
	t.Parallel()
	d := startDaemon(t, "-workers", "2", "-queue", "8", "-timeout", "5s", "-degraded",
		"-faults", "latency:pipeline/tags:0.1:20ms;error:pipeline/cluster:0.05;crash:plancache/leader:0.05",
		"-fault-seed", "42")
	runLoadgen(t, "-chaos", "-base", d.url(""), "-n", "200", "-c", "16", "-p99-budget", "30s")
	var status struct {
		Rules []faults.SiteStatus `json:"rules"`
	}
	d.getJSON(t, "/debug/faults", &status)
	if !slices.ContainsFunc(status.Rules, func(r faults.SiteStatus) bool { return r.Fired > 0 }) {
		t.Fatalf("no fault fired during the chaos run: %+v", status.Rules)
	}
}

// TestDaemonQuality: a -repair daemon sampling every served plan, under a
// drifting load, ends with at least two serve modes of finite miss rates
// in /debug/quality, shadow-sampled wide events, a request-duration
// exemplar whose trace resolves, and an access log thinned by -log-sample.
func TestDaemonQuality(t *testing.T) {
	t.Parallel()
	d := startDaemon(t, "-repair", "-quality-sample", "1.0", "-log-sample", "0.1")
	out := runLoadgen(t, "-drift", "0.2", "-base", d.url(""), "-n", "80", "-c", "8", "-specs", "4", "-quality")
	if !regexp.MustCompile(`(?m)^quality:`).MatchString(out) {
		t.Fatalf("loadgen -quality printed no quality summary:\n%s", out)
	}

	// The sampler runs off the request path: give the ledger a moment to
	// absorb the tail of the run.
	type modeStats struct {
		Samples   int64     `json:"samples"`
		MissRates []float64 `json:"miss_rates"`
	}
	var q struct {
		Ledger map[string]map[string]modeStats `json:"ledger"`
	}
	modes := map[string]bool{}
	eventually(t, "two serve modes in /debug/quality", func() bool {
		d.getJSON(t, "/debug/quality", &q)
		for _, byMode := range q.Ledger {
			for mode, st := range byMode {
				if st.Samples > 0 {
					modes[mode] = true
				}
			}
		}
		return len(modes) >= 2
	})
	finite := false
	for _, byMode := range q.Ledger {
		for _, st := range byMode {
			if len(st.MissRates) > 0 && !slices.ContainsFunc(st.MissRates, func(v float64) bool {
				return math.IsNaN(v) || v < 0 || v > 1
			}) {
				finite = true
			}
		}
	}
	if !finite {
		t.Fatalf("/debug/quality carries no finite miss rates: %+v", q.Ledger)
	}

	var events struct {
		Events []server.Event `json:"events"`
	}
	d.getJSON(t, "/debug/events?limit=50", &events)
	if !slices.ContainsFunc(events.Events, func(ev server.Event) bool { return ev.QualitySampled }) {
		t.Fatal("/debug/events holds no shadow-sampled events")
	}

	_, metrics := d.get(t, "/metrics")
	m := regexp.MustCompile(`(?m)^cachemapd_request_duration_seconds_bucket.* # \{trace_id="([0-9a-f]+)"\}`).FindSubmatch(metrics)
	if m == nil {
		t.Fatal("no exemplar on cachemapd_request_duration_seconds")
	}
	if !d.chromeTrace(t, string(m[1])) {
		t.Fatalf("exemplar trace %s did not resolve to a renderable trace", m[1])
	}

	if lines := strings.Count(d.logText(), "msg=request"); lines > 60 {
		t.Fatalf("access log has %d request lines for ~88 requests despite -log-sample 0.1", lines)
	}
}

// TestDaemonKillRestart: a daemon with a persistent plan store is killed
// with SIGKILL after serving, its log tail is torn mid-record (a crash
// during an append), and the restarted daemon skips the torn record,
// serves the surviving spec as a hit with zero computes and the same plan
// bytes, and compacts on demand.
func TestDaemonKillRestart(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	flags := []string{"-store-dir", dir, "-store-fsync", "always"}
	d := startDaemon(t, flags...)
	type planBytes struct {
		Plan   json.RawMessage `json:"plan"`
		Cached bool            `json:"cached"`
	}
	mapSpec := func(d *daemon, req server.MapRequest) planBytes {
		t.Helper()
		resp, body := d.post(t, "/v1/map", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("/v1/map: %d: %s", resp.StatusCode, body)
		}
		var pb planBytes
		if err := json.Unmarshal(body, &pb); err != nil {
			t.Fatalf("decoding %s: %v", body, err)
		}
		return pb
	}
	persist := synthReq("persist-ci", "2/4/8@16,8,4", 256)
	before := mapSpec(d, persist)
	if before.Cached {
		t.Fatal("first serve of the persisted spec was not a cold compute")
	}
	// A second record after the first: tearing the tail destroys only it.
	mapSpec(d, synthReq("persist-ci", "2/4/8@16,8,5", 256))
	// Disk writes ride a write-behind queue; wait for both records to
	// land, or the test would measure the queue, not the log.
	eventually(t, "2 records in the plan store", func() bool {
		return d.metric(t, "cachemapd_planstore_records") >= 2
	})
	d.stop(t, syscall.SIGKILL)

	logPath := filepath.Join(dir, "plans.log")
	st, err := os.Stat(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(logPath, st.Size()-17); err != nil {
		t.Fatal(err)
	}

	d = startDaemon(t, flags...)
	if skipped := d.metric(t, "cachemapd_planstore_skipped_records_total"); skipped < 1 {
		t.Fatalf("torn log tail not skipped: cachemapd_planstore_skipped_records_total = %v", skipped)
	}
	if warm := d.metric(t, "cachemapd_planstore_warm_records"); warm < 1 {
		t.Fatalf("restart warm-scanned %v records, want >= 1", warm)
	}
	after := mapSpec(d, persist)
	if !after.Cached {
		t.Fatal("restarted daemon did not serve the persisted spec as a hit")
	}
	if computes := d.metric(t, "cachemapd_pipeline_computes_total"); computes != 0 {
		t.Fatalf("restarted daemon ran %v pipeline computes serving a persisted spec, want 0", computes)
	}
	if len(before.Plan) == 0 || !bytes.Equal(before.Plan, after.Plan) {
		t.Fatalf("plan served after restart differs from the one computed before it:\n%s\n%s", before.Plan, after.Plan)
	}
	resp, body := d.post(t, "/debug/cache/snapshot", nil)
	var snap struct {
		Compacted bool `json:"compacted"`
	}
	if resp.StatusCode != http.StatusOK || json.Unmarshal(body, &snap) != nil || !snap.Compacted {
		t.Fatalf("POST /debug/cache/snapshot did not compact: %d: %s", resp.StatusCode, body)
	}
}

// holdTags is a fault spec that holds every cold computation in the tags
// stage for a second: long enough to act on a request while it runs.
const holdTags = "latency:pipeline/tags:1:1s"

// waitHeld waits until a computation is held in the tags stage.
func waitHeld(t *testing.T, d *daemon) {
	t.Helper()
	eventually(t, "a computation held in the tags stage", func() bool {
		return d.metric(t, `cachemapd_faults_injected_total{site="pipeline/tags"}`) >= 1
	})
}

// TestDaemonDrainsOnSIGTERM: SIGTERM during a cold request lets it finish
// with 200 within the -drain budget, and the daemon exits cleanly.
func TestDaemonDrainsOnSIGTERM(t *testing.T) {
	t.Parallel()
	d := startDaemon(t, "-drain", "10s", "-faults", holdTags)
	status := d.postAsync(synthReq("drain", "2/4/8@16,8,4", 256))
	waitHeld(t, d)
	if err := d.stop(t, syscall.SIGTERM); err != nil {
		t.Fatalf("exit after SIGTERM: %v, want status 0", err)
	}
	if got := <-status; got != http.StatusOK {
		t.Fatalf("in-flight request during the drain got %d, want 200", got)
	}
	lines := strings.Split(strings.TrimSpace(d.logText()), "\n")
	if last := lines[len(lines)-1]; !strings.Contains(last, "drained, exiting") {
		t.Fatalf(`log ends %q, want "drained, exiting"`, last)
	}
}

// TestDaemonQueueCostSheds: with the one worker held, the first waiter
// queues whatever its cost, and the second is shed with 429 by the
// -queue-cost bound although the depth bound would still hold it.
func TestDaemonQueueCostSheds(t *testing.T) {
	t.Parallel()
	d := startDaemon(t, "-workers", "1", "-queue", "8", "-queue-cost", "1", "-faults", holdTags)
	held := synthReq("cost", "2/4/8@16,8,4", 256)
	first := d.postAsync(held)
	waitHeld(t, d)
	waiter := d.postAsync(held)
	eventually(t, "one queued waiter", func() bool {
		return d.metric(t, "cachemapd_admission_queue_depth") == 1
	})
	resp, body := d.post(t, "/v1/map", synthReq("cost", "2/4/8@16,8,4", 512))
	if resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("second waiter: %d (Retry-After %q): %s; want 429 shed by cost",
			resp.StatusCode, resp.Header.Get("Retry-After"), body)
	}
	if limit := d.metric(t, "cachemapd_admission_queue_limit"); limit != 8 {
		t.Fatalf("admission queue limit %v, want 8", limit)
	}
	if s1, s2 := <-first, <-waiter; s1 != http.StatusOK || s2 != http.StatusOK {
		t.Fatalf("held request and queued waiter got %d and %d, want 200 both", s1, s2)
	}
}

// TestDaemonEventsOff: -events 0 turns off the event ring and tracing.
func TestDaemonEventsOff(t *testing.T) {
	t.Parallel()
	d := startDaemon(t, "-events", "0")
	resp, body := d.post(t, "/v1/map", synthReq("off", "2/4/8@16,8,4", 64))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/map: %d: %s", resp.StatusCode, body)
	}
	if id := resp.Header.Get("X-Trace-Id"); id != "" {
		t.Fatalf("X-Trace-Id %q with tracing off", id)
	}
	for _, path := range []string{"/debug/events", "/debug/traces"} {
		if resp, _ := d.get(t, path); resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s with -events 0: %d, want 404", path, resp.StatusCode)
		}
	}
}

// TestDaemonRejectsBadFlags: each startup check exits with status 2 and
// says why.
func TestDaemonRejectsBadFlags(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		flags []string
		msg   string
	}{
		{[]string{"-store-fsync", "bogus"}, "bad -store-fsync"},
		{[]string{"-faults", "nope"}, "bad -faults spec"},
		{[]string{"-self", "127.0.0.1:1"}, "-self is set but -peers is empty"},
	} {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		out, err := exec.CommandContext(ctx, binary(t, "cachemapd"),
			append([]string{"-addr", "127.0.0.1:0"}, tc.flags...)...).CombinedOutput()
		cancel()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("cachemapd %v: %v, want exit status 2\n%s", tc.flags, err, out)
		} else if !strings.Contains(string(out), tc.msg) {
			t.Errorf("cachemapd %v logged %q, want %q", tc.flags, out, tc.msg)
		}
	}
}
