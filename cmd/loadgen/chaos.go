package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/join"
	"repro/internal/server"
	"repro/internal/workloads"
)

// chaosOpts parameterizes a chaos run.
type chaosOpts struct {
	base      string
	client    *http.Client
	n         int           // total requests
	c         int           // concurrent streams inside a burst
	specs     int           // hot-set size
	burst     int           // requests per burst (0 = 2*c)
	p99Budget time.Duration // hard bound on the p99 of completed requests
}

// Outcome classes of a chaos request. Everything except outUnexpected is
// an acceptable answer from an overloaded-but-correct server.
const (
	outOK            = "ok"
	outStale         = "degraded_stale"
	outFallback      = "degraded_fallback"
	outShed          = "shed_429"
	outUnavailable   = "unavailable_503"
	outDeadline      = "deadline_504"
	outLottery       = "lottery_timeout"
	outUnexpected    = "UNEXPECTED"
	chaosOutcomesLen = 8
)

func chaosOutcomes() []string {
	return []string{outOK, outStale, outFallback, outShed,
		outUnavailable, outDeadline, outLottery, outUnexpected}
}

// runChaos floods the daemon with bursts of mixed hot/cold requests under
// a deadline lottery and verifies the overload contract: every response is
// one of the acceptable outcome classes (2xx complete or degraded, 429
// shed with Retry-After, 503/504 overload statuses, or a lottery-induced
// client timeout) and the p99 of completed requests stays within budget.
// Returns the process exit code.
func runChaos(o chaosOpts) int {
	if o.burst <= 0 {
		o.burst = 2 * o.c
	}
	hot := buildMix(o.specs)

	var (
		mu      sync.Mutex
		counts  = make(map[string]int64, chaosOutcomesLen)
		lats    []time.Duration // completed requests only (non-lottery)
		badNote []string
	)
	record := func(r chaosResult) {
		mu.Lock()
		counts[r.class]++
		if r.class == outOK || r.class == outStale || r.class == outFallback {
			lats = append(lats, r.d)
		}
		if r.class == outUnexpected && len(badNote) < 5 {
			badNote = append(badNote, r.note)
		}
		mu.Unlock()
	}

	start := time.Now()
	for lo := 0; lo < o.n; lo += o.burst {
		// Burst boundary: the last wave has drained; pause so the next
		// wave arrives as a front, not a trickle.
		if lo > 0 {
			time.Sleep(25 * time.Millisecond)
		}
		// fn never fails: each request records its own outcome.
		_ = join.Each(o.c, min(o.burst, o.n-lo), func(_, k int) error {
			record(chaosRequest(o, hot, lo+k))
			return nil
		})
	}
	elapsed := time.Since(start)

	sort.Slice(lats, func(a, b int) bool { return lats[a] < lats[b] })
	completed := int64(0)
	for _, cl := range []string{outOK, outStale, outFallback} {
		completed += counts[cl]
	}
	fmt.Printf("chaos:       %d requests in %.2fs (%.0f req/s), burst %d, %d streams\n",
		o.n, elapsed.Seconds(), float64(o.n)/elapsed.Seconds(), o.burst, o.c)
	for _, cl := range chaosOutcomes() {
		if counts[cl] > 0 {
			fmt.Printf("  %-18s %d\n", cl+":", counts[cl])
		}
	}
	fmt.Printf("completed:   %d/%d  latency p50 %s  p99 %s  max %s (budget %s)\n",
		completed, o.n, pct(lats, 0.50), pct(lats, 0.99), pct(lats, 1.0), o.p99Budget)
	for _, n := range badNote {
		fmt.Printf("unexpected: %s\n", n)
	}

	exit := 0
	if counts[outUnexpected] > 0 {
		fmt.Fprintf(os.Stderr, "loadgen: chaos FAILED: %d unexpected outcomes\n", counts[outUnexpected])
		exit = 1
	}
	if completed == 0 {
		fmt.Fprintln(os.Stderr, "loadgen: chaos FAILED: no request completed")
		exit = 1
	}
	if p99 := pct(lats, 0.99); p99 > o.p99Budget {
		fmt.Fprintf(os.Stderr, "loadgen: chaos FAILED: completed p99 %s exceeds budget %s\n", p99, o.p99Budget)
		exit = 1
	}
	if exit == 0 {
		fmt.Println("chaos:       PASS (zero unexpected outcomes, p99 within budget)")
	}
	return exit
}

// chaosResult is one chaos request's outcome class, its latency, and a
// note for an unexpected outcome.
type chaosResult struct {
	class string
	d     time.Duration
	note  string
}

// chaosRequest issues the i-th request of the run: ~70% hot-set (plan
// cache + stale tier exercise), ~30% cold never-seen specs (forces real
// clustering under load), and every 8th request plays the deadline
// lottery with a client-side timeout short enough that some must die
// mid-flight.
func chaosRequest(o chaosOpts, hot []server.MapRequest, i int) (res chaosResult) {
	req := hot[i%len(hot)]
	if i%10 >= 7 { // cold: a spec no other request shares
		req = server.MapRequest{
			Workload: server.WorkloadSpec{Synth: &workloads.SynthSpec{
				Name:    fmt.Sprintf("chaos-cold-%d", i),
				Passes:  2,
				Extent:  512 + int64(i%7)*128,
				Streams: []workloads.StreamSpec{{Stride: 1}},
			}},
			Topology: "2/4/8@16,8,4",
			Scheme:   "inter",
		}
	}

	lottery := i%8 == 0
	ctx := context.Background()
	if lottery {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(1+i%40)*time.Millisecond)
		defer cancel()
	}

	t0 := time.Now()
	rep, err := post(ctx, o.client, o.base+"/v1/map", req)
	res.d = time.Since(t0)
	if err != nil {
		if lottery && (errors.Is(err, context.DeadlineExceeded) || ctx.Err() != nil) {
			res.class = outLottery
			return res
		}
		res.class = outUnexpected
		res.note = fmt.Sprintf("req %d: transport error: %v", i, err)
		return res
	}
	res.class, _, res.note = classify(i, rep)
	return res
}
