// Command loadgen exercises a running cachemapd with concurrent streams of
// mixed mapping (and optionally simulation) requests and reports
// throughput, latency percentiles and plan-cache effectiveness.
//
// Usage:
//
//	cachemapd &
//	loadgen                                  # 512 requests, 64 concurrent
//	loadgen -n 2000 -c 128 -simulate 0.25    # quarter of the stream simulates
//	loadgen -base http://host:8642 -specs 16
//	loadgen -chaos -n 400 -c 32              # overload contract check (see below)
//	loadgen -ring host:8642,host:8643,host:8644 -n 600 -pace 5ms
//
// Ring mode (-ring) round-robins the stream across the listed cachemapd
// ring members and checks the cluster-wide contract: every response is a
// completed 200 (possibly degraded), an overload status (429/503/504),
// or a transport error against a node killed mid-run — reported per node
// with peer-fill (filled_from) and cache-hit refinements. Use it with a
// kill -9 of one member to watch the survivors keep serving.
//
// Chaos mode (-chaos) floods the daemon with bursts of mixed hot/cold
// specs under a deadline lottery and asserts the overload contract: every
// response must be a completed 200 (possibly degraded), a 429 shed with
// Retry-After, a 503/504 overload status, or a lottery-induced client
// timeout — anything else (or a completed-request p99 beyond -p99-budget)
// fails the run. Point it at a cachemapd started with -queue/-degraded/
// -faults to exercise admission control, degraded serving and fault
// injection together.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/join"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/workloads"
)

func main() {
	base := flag.String("base", "http://127.0.0.1:8642", "cachemapd base URL")
	n := flag.Int("n", 512, "total requests to send")
	c := flag.Int("c", 64, "concurrent request streams")
	specs := flag.Int("specs", 8, "distinct workload specs in the mix (cache hot set)")
	simulate := flag.Float64("simulate", 0, "fraction of requests sent to /v1/simulate instead of /v1/map")
	timeout := flag.Duration("timeout", 60*time.Second, "per-request client timeout")
	chaos := flag.Bool("chaos", false, "chaos mode: bursty hot/cold mix with a deadline lottery; fail on any outcome outside the overload contract")
	burst := flag.Int("burst", 0, "chaos mode: requests per burst (0 = 2x concurrency)")
	p99Budget := flag.Duration("p99-budget", 30*time.Second, "chaos mode: hard bound on the p99 latency of completed requests")
	ring := flag.String("ring", "", "comma-separated cachemapd addresses: round-robin ring mode, tolerant of a node dying mid-run (overrides -base)")
	pace := flag.Duration("pace", 0, "ring mode: per-stream delay between requests (stretches the run so a mid-run kill lands inside it)")
	drift := flag.Float64("drift", 0, "drift mode: mutate each request's topology capacities by up to ±this fraction and report the incremental-vs-full re-plan mix (0 disables)")
	driftSeed := flag.Int64("drift-seed", 1, "drift mode: seed for the deterministic capacity mutations")
	qualityCol := flag.Bool("quality", false, "after the run, fetch /debug/quality and print per-family miss-rate deltas of each serve mode vs the full pipeline (daemon must run with -quality-sample)")
	flag.Parse()

	if *n < 1 || *c < 1 || *specs < 1 || *simulate < 0 || *simulate > 1 {
		fmt.Fprintln(os.Stderr, "loadgen: bad flags")
		os.Exit(2)
	}

	client := &http.Client{
		Timeout: *timeout,
		Transport: &http.Transport{
			MaxIdleConns:        *c,
			MaxIdleConnsPerHost: *c,
		},
	}

	if *ring != "" {
		var nodes []string
		for _, a := range strings.Split(*ring, ",") {
			if a = strings.TrimSpace(a); a != "" {
				nodes = append(nodes, a)
			}
		}
		if len(nodes) == 0 {
			fmt.Fprintln(os.Stderr, "loadgen: -ring lists no addresses")
			os.Exit(2)
		}
		os.Exit(runRing(ringOpts{
			nodes:  nodes,
			client: client,
			n:      *n,
			c:      *c,
			specs:  *specs,
			pace:   *pace,
		}))
	}

	// Probe liveness before opening the floodgates.
	resp, err := client.Get(*base + "/healthz")
	if err != nil {
		fmt.Fprintf(os.Stderr, "loadgen: daemon unreachable: %v\n", err)
		os.Exit(1)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	if *drift > 0 {
		code := runDrift(driftOpts{
			base:   *base,
			client: client,
			n:      *n,
			c:      *c,
			specs:  *specs,
			drift:  *drift,
			seed:   *driftSeed,
		})
		if *qualityCol {
			printQuality(client, *base)
		}
		os.Exit(code)
	}

	if *chaos {
		os.Exit(runChaos(chaosOpts{
			base:      *base,
			client:    client,
			n:         *n,
			c:         *c,
			specs:     *specs,
			burst:     *burst,
			p99Budget: *p99Budget,
		}))
	}

	reqs := buildMix(*specs)
	var (
		errCount  atomic.Int64
		hitCount  atomic.Int64
		mu        sync.Mutex
		latencies []time.Duration
		firstErrs []string
		slowest   []tracedLatency
	)
	simEvery := 0
	if *simulate > 0 {
		simEvery = int(math.Round(1 / *simulate))
	}

	start := time.Now()
	// fn never fails: each request records its own outcome.
	_ = join.Each(*c, *n, func(_, i int) error {
		req := reqs[i%len(reqs)]
		path := "/v1/map"
		var body any = req
		if simEvery > 0 && i%simEvery == 0 {
			path = "/v1/simulate"
			body = server.SimRequest{MapRequest: req}
		}
		t0 := time.Now()
		rep, err := post(context.Background(), client, *base+path, body)
		d := time.Since(t0)
		mu.Lock()
		latencies = append(latencies, d)
		slowest = recordSlowest(slowest, tracedLatency{d: d, traceID: rep.traceID, path: path})
		mu.Unlock()
		var env planEnvelope
		if err == nil {
			env, err = rep.plan(*base + path)
		}
		if err != nil {
			errCount.Add(1)
			mu.Lock()
			if len(firstErrs) < 5 {
				firstErrs = append(firstErrs, err.Error())
			}
			mu.Unlock()
			return nil
		}
		if env.Cached {
			hitCount.Add(1)
		}
		return nil
	})
	elapsed := time.Since(start)

	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	fmt.Printf("requests:    %d (%d errors)\n", *n, errCount.Load())
	fmt.Printf("concurrency: %d streams, %d distinct specs\n", *c, len(reqs))
	fmt.Printf("wall time:   %.2fs  (%.0f req/s)\n", elapsed.Seconds(), float64(*n)/elapsed.Seconds())
	fmt.Printf("cache hits:  %d/%d (%.0f%%)\n", hitCount.Load(), *n, 100*float64(hitCount.Load())/float64(*n))
	fmt.Printf("latency:     p50 %s  p90 %s  p99 %s  max %s\n",
		pct(latencies, 0.50), pct(latencies, 0.90), pct(latencies, 0.99), pct(latencies, 1.0))
	for _, s := range slowest {
		if s.traceID == "" {
			continue
		}
		// Inspect with: curl $base/debug/traces/<trace-id>
		fmt.Printf("slowest:     %s  %s  trace %s\n", s.d.Round(10*time.Microsecond), s.path, s.traceID)
	}
	for _, e := range firstErrs {
		fmt.Printf("error: %s\n", e)
	}
	if *qualityCol {
		printQuality(client, *base)
	}
	if errCount.Load() > 0 {
		os.Exit(1)
	}
}

// buildMix produces k distinct mapping requests spanning schemes,
// topologies and workload shapes, so the stream exercises both cold plans
// and the cache's hot set.
func buildMix(k int) []server.MapRequest {
	schemes := []string{"inter", "inter-sched", "original", "intra"}
	topos := []string{"1/2/4@16,8,4", "2/4/8@16,8,4", "4/8/16@16,8,4"}
	out := make([]server.MapRequest, 0, k)
	for i := 0; i < k; i++ {
		out = append(out, server.MapRequest{
			Workload: server.WorkloadSpec{Synth: &workloads.SynthSpec{
				Name:    fmt.Sprintf("lg%d", i),
				Passes:  2 + int64(i%3),
				Extent:  256 * int64(1+i%4),
				Streams: []workloads.StreamSpec{{Stride: 1}, {Stride: 1, Offset: 8 * int64(1+i%4)}},
			}},
			Topology: topos[i%len(topos)],
			Scheme:   schemes[i%len(schemes)],
		})
	}
	return out
}

// tracedLatency pairs a request duration with the trace ID the daemon
// retained for it, so slow outliers can be pulled from /debug/traces.
type tracedLatency struct {
	d       time.Duration
	traceID string
	path    string
}

// recordSlowest keeps the top three slowest requests, slowest first.
// Caller holds mu.
func recordSlowest(top []tracedLatency, tl tracedLatency) []tracedLatency {
	top = append(top, tl)
	sort.Slice(top, func(i, j int) bool { return top[i].d > top[j].d })
	if len(top) > 3 {
		top = top[:3]
	}
	return top
}

// planEnvelope is the provenance slice of a map/simulate response loadgen
// cares about.
type planEnvelope struct {
	Cached       bool     `json:"cached"`
	FilledFrom   string   `json:"filled_from"`
	Replanned    string   `json:"replanned"`
	ReusedStages []string `json:"reused_stages"`
	Degraded     string   `json:"degraded"`
}

// reply is one answer of the daemon: its status, headers and body, and the
// trace ID it echoed.
type reply struct {
	status  int
	header  http.Header
	body    []byte
	traceID string
}

// post sends one JSON request under ctx and a fresh trace context and
// reads the whole answer. Its error is a transport or encoding error; the
// caller judges the status.
func post(ctx context.Context, client *http.Client, url string, body any) (reply, error) {
	b, err := json.Marshal(body)
	if err != nil {
		return reply{}, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(b))
	if err != nil {
		return reply{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("traceparent", obs.NewTraceContext().TraceParent())
	resp, err := client.Do(req)
	if err != nil {
		return reply{}, err
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	r := reply{status: resp.StatusCode, header: resp.Header, traceID: resp.Header.Get("X-Trace-Id")}
	if err != nil {
		return r, err
	}
	r.body = out
	return r, nil
}

// plan decodes a 200 answer's provenance envelope; any other status is an
// error naming url.
func (r reply) plan(url string) (env planEnvelope, err error) {
	if r.status != http.StatusOK {
		return env, fmt.Errorf("%s: status %d: %s", url, r.status, truncate(r.body, 200))
	}
	if err := json.Unmarshal(r.body, &env); err != nil {
		return env, fmt.Errorf("%s: bad response: %v", url, err)
	}
	return env, nil
}

// classify sorts an answer by the overload contract of chaos and ring
// mode: a 200 by its degraded mode, a 429 only with a Retry-After header,
// 503 and 504. Anything else is outUnexpected, with a note naming request
// i. The caller names a transport error, which never reaches here.
func classify(i int, r reply) (class string, env planEnvelope, note string) {
	switch r.status {
	case http.StatusOK:
		if err := json.Unmarshal(r.body, &env); err != nil {
			return outUnexpected, planEnvelope{}, fmt.Sprintf("req %d: bad 200 body: %v", i, err)
		}
		switch env.Degraded {
		case "":
			return outOK, env, ""
		case server.DegradedStale:
			return outStale, env, ""
		case server.DegradedFallback:
			return outFallback, env, ""
		}
		return outUnexpected, env, fmt.Sprintf("req %d: unknown degraded mode %q", i, env.Degraded)
	case http.StatusTooManyRequests:
		if r.header.Get("Retry-After") == "" {
			return outUnexpected, env, fmt.Sprintf("req %d: 429 without Retry-After", i)
		}
		return outShed, env, ""
	case http.StatusServiceUnavailable:
		return outUnavailable, env, ""
	case http.StatusGatewayTimeout:
		return outDeadline, env, ""
	}
	return outUnexpected, env, fmt.Sprintf("req %d: status %d: %s", i, r.status, truncate(r.body, 160))
}

func truncate(b []byte, n int) string {
	if len(b) <= n {
		return string(b)
	}
	return string(b[:n]) + "…"
}

// pct returns the p-quantile by nearest rank of the sorted durations.
func pct(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i].Round(10 * time.Microsecond)
}
