package cachemap

import (
	"runtime/debug"
	"testing"

	"repro/internal/race"
)

// TestAllocPlanCacheHit gates the steady-state allocation cost of a warm
// plan-cache hit served in process (the ci.sh alloc-gate job runs every
// TestAlloc* with GOGC=off; GC is also disabled here so sync.Pool eviction
// cannot fake a regression under a default run).
//
// The hit path is not zero-alloc by design: its documented constant is the
// two content-hash JSON encodings (the plan key and the workload-only stale
// key), the job struct, and the response struct — roughly a dozen objects.
// The memoized topology/workload spec caches (internal/server/api.go) keep
// everything else off the path; before them a hit cost ~160 objects. The
// bound holds headroom for encoder internals, not for re-deriving specs.
func TestAllocPlanCacheHit(t *testing.T) {
	if race.Enabled {
		t.Skip("race-mode sync.Pool drops Puts by design; the alloc gate runs without -race")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	svc := newTestService(t, ServiceConfig{})
	req := MapRequest{
		Workload: WorkloadSpec{Synth: &SynthSpec{
			Name:    "allocgate",
			Passes:  4,
			Extent:  2048,
			Streams: []StreamSpec{{Stride: 1}, {Stride: 1, Offset: 32}},
		}},
		Topology: "4/8/16@16,8,4",
		Scheme:   "inter",
	}
	if _, err := svc.ComputePlan(req); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		mr, err := svc.ComputePlan(req)
		if err != nil {
			t.Fatal(err)
		}
		if !mr.Cached {
			t.Fatal("warm request missed the plan cache")
		}
	})
	const bound = 20 // measured 11; headroom for encoder internals only
	if allocs > bound {
		t.Fatalf("warm plan-cache hit allocates %v objects/op, want <= %d", allocs, bound)
	}
}
