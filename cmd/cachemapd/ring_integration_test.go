package main

// Multi-process ring integration test: builds the real cachemapd binary,
// boots a 3-node ring on ephemeral ports, and proves the distributed
// plan cache end to end — peer fill, fleet-wide singleflight, owner-kill
// failover to local compute, degraded-stale serving from a replica that
// only ever saw the plan via a fill, and a loadgen -ring run that
// survives a node kill.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/server"
)

const ringTopo = "2/4/8@16,8,4"

type ringFleet struct {
	addrs []string
	nodes []*daemon
}

// startFleet boots n daemons that all know the full peer list. Ports are
// reserved with :0 listeners and each is released just before its node
// starts, so the fleet addresses are known up front.
func startFleet(t *testing.T, n int) *ringFleet {
	t.Helper()
	f := &ringFleet{}
	lns := make([]net.Listener, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		f.addrs = append(f.addrs, ln.Addr().String())
	}
	peers := strings.Join(f.addrs, ",")
	for i, ln := range lns {
		ln.Close()
		f.nodes = append(f.nodes, startDaemon(t,
			"-addr", f.addrs[i],
			"-self", f.addrs[i],
			"-peers", peers,
			"-fill-timeout", "5s",
			"-degraded",
			// A zero-probability rule arms the injector so POST /debug/faults
			// is live without perturbing anything until a scenario uses it.
			"-faults", "error:pipeline/tags:0",
			"-fault-seed", "7",
		))
	}
	return f
}

// ownerIndex resolves which fleet member owns req's plan key, using the
// same exported primitives a client-side ring router would.
func (f *ringFleet) ownerIndex(t *testing.T, req server.MapRequest) int {
	t.Helper()
	key, err := server.PlanKey(req)
	if err != nil {
		t.Fatal(err)
	}
	ring, err := cluster.NewRing(f.addrs, cluster.RingVNodes, cluster.RingSeed)
	if err != nil {
		t.Fatal(err)
	}
	owner := ring.Owner(key)
	for i, a := range f.addrs {
		if a == owner {
			return i
		}
	}
	t.Fatalf("owner %q not a fleet member %v", owner, f.addrs)
	return -1
}

// reqOwnedBy searches synth extents until one's plan key is owned by the
// fleet member at index want and is distinct from the taken extents.
func (f *ringFleet) reqOwnedBy(t *testing.T, want int, taken map[int64]bool) server.MapRequest {
	t.Helper()
	for ext := int64(32); ext < 4096; ext++ {
		if taken[ext] {
			continue
		}
		req := synthReq("ring", ringTopo, ext)
		if f.ownerIndex(t, req) == want {
			taken[ext] = true
			return req
		}
	}
	t.Fatal("no synth extent hashed to the wanted owner")
	return server.MapRequest{}
}

func (f *ringFleet) postMap(t *testing.T, i int, req server.MapRequest) (int, server.MapResponse, []byte) {
	t.Helper()
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post("http://"+f.addrs[i]+"/v1/map", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatalf("POST to node %d: %v", i, err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var mr server.MapResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(body, &mr); err != nil {
			t.Fatalf("decoding node %d response %s: %v", i, body, err)
		}
	}
	return resp.StatusCode, mr, body
}

func (f *ringFleet) fleetComputes(t *testing.T, skip int) float64 {
	t.Helper()
	var total float64
	for i := range f.addrs {
		if i == skip {
			continue
		}
		total += f.nodes[i].metric(t, "cachemapd_pipeline_computes_total")
	}
	return total
}

func TestRingCluster(t *testing.T) {
	f := startFleet(t, 3)
	taken := map[int64]bool{}

	// The scenarios share fleet state (caches, counters, a killed node),
	// so they must run in order; each uses fresh keys where it matters.
	var fillReq server.MapRequest
	const fillOwner, replica = 0, 1

	t.Run("PeerFill", func(t *testing.T) {
		fillReq = f.reqOwnedBy(t, fillOwner, taken)
		status, mr, body := f.postMap(t, replica, fillReq)
		if status != http.StatusOK {
			t.Fatalf("fill request: %d: %s", status, body)
		}
		if mr.FilledFrom != f.addrs[fillOwner] {
			t.Fatalf("filled_from = %q, want owner %q", mr.FilledFrom, f.addrs[fillOwner])
		}
		if got := f.nodes[fillOwner].metric(t, "cachemapd_pipeline_computes_total"); got != 1 {
			t.Fatalf("owner computes = %v, want 1", got)
		}
		if got := f.nodes[replica].metric(t, "cachemapd_pipeline_computes_total"); got != 0 {
			t.Fatalf("replica computed locally: %v", got)
		}
		if got := f.nodes[replica].metric(t, `cachemapd_peer_fill_total{outcome="hit"}`); got != 1 {
			t.Fatalf("peer_fill hit = %v, want 1", got)
		}

		// Plan bytes must be identical however the plan is served: the
		// owner's local copy, the replica's fill, and a fresh fill on the
		// third node.
		_, mrOwner, _ := f.postMap(t, fillOwner, fillReq)
		_, mrThird, _ := f.postMap(t, 2, fillReq)
		filled, _ := json.Marshal(mr.Plan)
		local, _ := json.Marshal(mrOwner.Plan)
		third, _ := json.Marshal(mrThird.Plan)
		if !bytes.Equal(filled, local) || !bytes.Equal(filled, third) {
			t.Fatalf("plan bytes diverged across serving paths:\nfilled: %s\nowner:  %s\nthird:  %s", filled, local, third)
		}
		if mrOwner.FilledFrom != "" || !mrOwner.Cached {
			t.Fatalf("owner self-serve: filled_from=%q cached=%v", mrOwner.FilledFrom, mrOwner.Cached)
		}
		if mr.CacheKey == "" || mr.CacheKey != mrOwner.CacheKey || mr.CacheKey != mrThird.CacheKey {
			t.Fatalf("cache keys diverged across nodes: filled %q, owner %q, third %q",
				mr.CacheKey, mrOwner.CacheKey, mrThird.CacheKey)
		}

		// The fill fetch ran under a cluster.fetch span on the requester.
		resp, err := http.Get("http://" + f.addrs[replica] + "/debug/traces")
		if err != nil {
			t.Fatal(err)
		}
		traces, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if !strings.Contains(string(traces), "cluster.fetch") {
			t.Fatal("no cluster.fetch span in the requester's traces")
		}
	})

	t.Run("FleetWideSingleflight", func(t *testing.T) {
		req := f.reqOwnedBy(t, fillOwner, taken)
		before := f.fleetComputes(t, -1)
		var wg sync.WaitGroup
		errs := make(chan string, 9)
		for i := 0; i < 3; i++ {
			for c := 0; c < 3; c++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					if status, _, body := f.postMap(t, i, req); status != http.StatusOK {
						errs <- fmt.Sprintf("node %d: %d: %s", i, status, body)
					}
				}(i)
			}
		}
		wg.Wait()
		close(errs)
		for e := range errs {
			t.Fatal(e)
		}
		if delta := f.fleetComputes(t, -1) - before; delta != 1 {
			t.Fatalf("concurrent identical misses on 3 nodes ran %v pipeline computes, want exactly 1", delta)
		}
	})

	t.Run("OwnerKillFailover", func(t *testing.T) {
		// A key owned by the node we are about to kill, not yet cached
		// anywhere.
		req := f.reqOwnedBy(t, fillOwner, taken)
		f.nodes[fillOwner].stop(t, os.Kill)

		status, mr, body := f.postMap(t, replica, req)
		if status != http.StatusOK {
			t.Fatalf("request during owner outage: %d: %s", status, body)
		}
		if mr.FilledFrom != "" || mr.Degraded != "" {
			t.Fatalf("failover mislabeled: filled_from=%q degraded=%q", mr.FilledFrom, mr.Degraded)
		}
		if got := f.nodes[replica].metric(t, "cachemapd_pipeline_computes_total"); got != 1 {
			t.Fatalf("replica computes = %v, want 1 (local failover)", got)
		}
		if got := f.nodes[replica].metric(t, `cachemapd_peer_fill_total{outcome="error"}`); got != 1 {
			t.Fatalf("peer_fill error = %v, want 1", got)
		}

		// The dead peer shows up in the replica's /healthz ring block.
		resp, err := http.Get("http://" + f.addrs[replica] + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		hz, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if !strings.Contains(string(hz), `"state":"down"`) {
			t.Fatalf("dead owner not reported down in healthz: %s", hz)
		}
	})

	t.Run("DegradedStaleFromReplica", func(t *testing.T) {
		// The replica only ever saw fillReq's plan through a peer fill, and
		// its owner is dead. Force both the fill path and the pipeline to
		// fail on the replica: the stale tier replicated by the fill must
		// answer a drifted-topology request in degraded mode.
		rules := `[{"kind":"error","site":"pipeline/tags","prob":1},` +
			`{"kind":"error","site":"cluster/fetch","prob":1}]`
		resp, err := http.Post("http://"+f.addrs[replica]+"/debug/faults",
			"application/json", strings.NewReader(rules))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("arming faults: %d", resp.StatusCode)
		}

		drifted := fillReq
		drifted.Topology = "2/4/7@16,8,4" // one leaf fewer: within stale tolerance
		status, mr, body := f.postMap(t, replica, drifted)
		if status != http.StatusOK {
			t.Fatalf("degraded request: %d: %s", status, body)
		}
		if mr.Degraded != "stale" {
			t.Fatalf("degraded = %q (cause %q), want stale: %s", mr.Degraded, mr.DegradedCause, body)
		}
	})

	t.Run("LoadgenSurvivesNodeKill", func(t *testing.T) {
		// Last, so the kill cannot disturb the exact compute counts above:
		// round-robin load across the whole peer list (node 0 is already
		// dead) while node 2 is killed mid-run must see only contract
		// outcomes.
		var out bytes.Buffer
		run := exec.Command(binary(t, "loadgen"), "-ring", strings.Join(f.addrs, ","), "-n", "400", "-c", "8", "-pace", "10ms")
		run.Stdout = &out
		run.Stderr = &out
		if err := run.Start(); err != nil {
			t.Fatal(err)
		}
		time.Sleep(500 * time.Millisecond)
		f.nodes[2].stop(t, os.Kill)
		if err := run.Wait(); err != nil {
			t.Fatalf("loadgen -ring across a node kill: %v\n%s", err, out.String())
		}
		if !strings.Contains(out.String(), "ring:        PASS") {
			t.Fatalf("loadgen -ring printed no PASS line:\n%s", out.String())
		}
	})
}
