package main

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/join"
	"repro/internal/server"
)

// ringOpts parameterizes a ring-mode run.
type ringOpts struct {
	nodes  []string
	client *http.Client
	n      int           // total requests
	c      int           // concurrent streams
	specs  int           // hot-set size
	pace   time.Duration // per-stream delay between requests
}

// Ring-mode outcome classes. On top of the single-node overload contract
// (see chaos.go), a ring run tolerates unreachable: killing a node
// mid-run is part of the exercise, and requests already routed to it die
// with a transport error rather than an HTTP status.
const outUnreachable = "unreachable"

func ringOutcomes() []string {
	return []string{outOK, outStale, outFallback, outShed,
		outUnavailable, outDeadline, outUnreachable, outUnexpected}
}

// nodeTally accumulates one ring member's outcome counts. filled and
// cached refine ok/degraded totals: filled counts plans whose
// filled_from names another ring member (peer-fill provenance), cached
// counts local plan-cache hits.
type nodeTally struct {
	counts map[string]int64
	filled int64
	cached int64
}

// runRing round-robins the request stream across every ring member and
// verifies the cluster-wide overload contract: each response is a
// completed 200 (possibly degraded), an overload status (429/503/504),
// or a transport error against a node that may have been killed mid-run.
// Anything else — or a run where no request completes — fails. Returns
// the process exit code.
func runRing(o ringOpts) int {
	hot := buildMix(o.specs)
	tallies := make([]*nodeTally, len(o.nodes))
	for i := range tallies {
		tallies[i] = &nodeTally{counts: make(map[string]int64, len(ringOutcomes()))}
	}

	var (
		mu      sync.Mutex
		badNote []string
	)
	start := time.Now()
	// fn never fails: each request records its own outcome.
	_ = join.Each(o.c, o.n, func(_, i int) error {
		node := i % len(o.nodes)
		class, filled, cached, note := ringRequest(o, hot, node, i)
		mu.Lock()
		tallies[node].counts[class]++
		if filled {
			tallies[node].filled++
		}
		if cached {
			tallies[node].cached++
		}
		if class == outUnexpected && len(badNote) < 5 {
			badNote = append(badNote, note)
		}
		mu.Unlock()
		if o.pace > 0 {
			time.Sleep(o.pace)
		}
		return nil
	})
	elapsed := time.Since(start)

	var completed, unexpected, unreachable int64
	fmt.Printf("ring:        %d requests over %d nodes in %.2fs (%.0f req/s), %d streams\n",
		o.n, len(o.nodes), elapsed.Seconds(), float64(o.n)/elapsed.Seconds(), o.c)
	for i, tl := range tallies {
		var parts []string
		for _, cl := range ringOutcomes() {
			if tl.counts[cl] > 0 {
				parts = append(parts, fmt.Sprintf("%s=%d", cl, tl.counts[cl]))
			}
		}
		sort.Strings(parts)
		fmt.Printf("  node %-21s %s (filled=%d cached=%d)\n",
			o.nodes[i]+":", strings.Join(parts, " "), tl.filled, tl.cached)
		completed += tl.counts[outOK] + tl.counts[outStale] + tl.counts[outFallback]
		unexpected += tl.counts[outUnexpected]
		unreachable += tl.counts[outUnreachable]
	}
	for _, n := range badNote {
		fmt.Printf("unexpected: %s\n", n)
	}

	exit := 0
	if unexpected > 0 {
		fmt.Fprintf(os.Stderr, "loadgen: ring FAILED: %d unexpected outcomes\n", unexpected)
		exit = 1
	}
	if completed == 0 {
		fmt.Fprintln(os.Stderr, "loadgen: ring FAILED: no request completed on any node")
		exit = 1
	}
	if exit == 0 {
		fmt.Printf("ring:        PASS (%d completed, %d unreachable, zero unexpected)\n",
			completed, unreachable)
	}
	return exit
}

// ringRequest issues request i to the given ring member and classifies
// the outcome.
func ringRequest(o ringOpts, hot []server.MapRequest, node, i int) (class string, filled, cached bool, note string) {
	rep, err := post(context.Background(), o.client, "http://"+o.nodes[node]+"/v1/map", hot[i%len(hot)])
	if err != nil {
		// The node may have been killed mid-run: that is the scenario ring
		// mode exists to survive, not an error in itself.
		return outUnreachable, false, false, ""
	}
	class, env, note := classify(i, rep)
	return class, env.FilledFrom != "", env.Cached, note
}
