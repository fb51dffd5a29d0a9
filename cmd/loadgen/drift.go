// Drift mode (-drift k): a steady stream of requests for a small set of
// workload families whose topologies wobble — every request's per-layer
// cache capacities are scaled by a deterministic pseudo-random factor in
// [1−k, 1+k]. Against a cachemapd started with -repair this keeps hitting
// the incremental re-planning fast-path (same workload, near-miss
// topology), and the summary reports the resulting production mix:
// how many plans were full pipeline runs, incremental repairs, plain
// cache hits or degraded responses, plus the stage-reuse ledger.
package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/join"
	"repro/internal/server"
	"repro/internal/workloads"
)

type driftOpts struct {
	base   string
	client *http.Client
	n      int
	c      int
	specs  int
	drift  float64
	seed   int64
}

// driftTopo renders a layered topology spec with the base capacities
// (16, 8, 4) each scaled by an independent factor in [1−k, 1+k].
func driftTopo(rr *rand.Rand, k float64) string {
	caps := [3]int{16, 8, 4}
	for i, c := range caps {
		f := 1 + k*(2*rr.Float64()-1)
		v := int(float64(c)*f + 0.5)
		if v < 1 {
			v = 1
		}
		caps[i] = v
	}
	return fmt.Sprintf("2/4/8@%d,%d,%d", caps[0], caps[1], caps[2])
}

// driftFamilies builds k workload families pinned to the repairable inter
// scheme; only their topologies vary between requests.
func driftFamilies(k int) []server.MapRequest {
	out := make([]server.MapRequest, 0, k)
	for i := 0; i < k; i++ {
		out = append(out, server.MapRequest{
			Workload: server.WorkloadSpec{Synth: &workloads.SynthSpec{
				Name:    fmt.Sprintf("drift%d", i),
				Passes:  2 + int64(i%3),
				Extent:  256 * int64(1+i%4),
				Streams: []workloads.StreamSpec{{Stride: 1}, {Stride: 1, Offset: 8 * int64(1+i%4)}},
			}},
			Scheme: "inter",
		})
	}
	return out
}

func runDrift(o driftOpts) int {
	families := driftFamilies(o.specs)
	// Pre-generate the request stream so the per-request topologies are
	// deterministic under -drift-seed regardless of worker interleaving.
	rr := rand.New(rand.NewSource(o.seed))
	reqs := make([]server.MapRequest, o.n)
	for i := range reqs {
		reqs[i] = families[i%len(families)]
		reqs[i].Topology = driftTopo(rr, o.drift)
	}

	var (
		full, incr, hits       atomic.Int64
		degraded, errs, reused atomic.Int64
		mu                     sync.Mutex
		latencies              []time.Duration
		firstErrs              []string
	)
	start := time.Now()
	url := o.base + "/v1/map"
	// fn never fails: each request records its own outcome.
	_ = join.Each(o.c, o.n, func(_, i int) error {
		t0 := time.Now()
		rep, err := post(context.Background(), o.client, url, reqs[i])
		d := time.Since(t0)
		mu.Lock()
		latencies = append(latencies, d)
		mu.Unlock()
		var env planEnvelope
		if err == nil {
			env, err = rep.plan(url)
		}
		if err != nil {
			errs.Add(1)
			mu.Lock()
			if len(firstErrs) < 5 {
				firstErrs = append(firstErrs, err.Error())
			}
			mu.Unlock()
			return nil
		}
		switch {
		case env.Degraded != "":
			degraded.Add(1)
		case env.Cached:
			hits.Add(1)
		case env.Replanned == server.ReplanIncremental:
			incr.Add(1)
		default:
			full.Add(1)
		}
		reused.Add(int64(len(env.ReusedStages)))
		return nil
	})
	elapsed := time.Since(start)

	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	done := o.n - int(errs.Load())
	fmt.Printf("requests:    %d (%d errors)\n", o.n, errs.Load())
	fmt.Printf("drift:       ±%.0f%% over %d families (seed %d)\n", 100*o.drift, len(families), o.seed)
	fmt.Printf("wall time:   %.2fs  (%.0f req/s)\n", elapsed.Seconds(), float64(o.n)/elapsed.Seconds())
	fmt.Printf("replanned:   %d full, %d incremental, %d cached, %d degraded\n",
		full.Load(), incr.Load(), hits.Load(), degraded.Load())
	if done > 0 {
		fmt.Printf("incremental: %.0f%% of completed requests, %d stage runs reused\n",
			100*float64(incr.Load())/float64(done), reused.Load())
	}
	fmt.Printf("latency:     p50 %s  p90 %s  p99 %s  max %s\n",
		pct(latencies, 0.50), pct(latencies, 0.90), pct(latencies, 0.99), pct(latencies, 1.0))
	for _, e := range firstErrs {
		fmt.Printf("error: %s\n", e)
	}
	if errs.Load() > 0 {
		return 1
	}
	return 0
}
