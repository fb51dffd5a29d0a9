package tags

// The tagger's allocation gate (the ci.sh alloc-gate step runs every
// TestAlloc* with GOGC=off). The test also disables GC for its measurement
// so sync.Pool eviction cannot fake a regression under a default GOGC run.

import (
	"context"
	"runtime/debug"
	"testing"

	"repro/internal/race"
	"repro/internal/workloads"
)

// TestAllocTagsColdShape gates the allocations of tagging the cold_plan
// synthetic (three streams over 4 passes of extent 4096) at Workers 1. With
// the scratch pool warm, a call allocates its results — the run slab, the
// tag slab, the chunk structs and the chunk list — and a fixed handful of
// call-frame objects, whatever the number of iterations or segments:
// measured 8.
func TestAllocTagsColdShape(t *testing.T) {
	if race.Enabled {
		t.Skip("race-mode sync.Pool drops Puts by design; the alloc gate runs without -race")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	w, err := workloads.Synthesize(workloads.SynthSpec{
		Name:   "cold",
		Passes: 4,
		Extent: 4096,
		Streams: []workloads.StreamSpec{
			{Stride: 1}, {Stride: 1, Offset: 64}, {Stride: 2, Offset: 32, Drift: 8},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	p := w.Prog
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := ComputeCtx(context.Background(), p.Nest, p.Refs, p.Data, 1); err != nil {
			t.Fatal(err)
		}
	})
	const bound = 12 // measured 8; headroom for a toolchain's escape decisions only
	if allocs > bound {
		t.Fatalf("tagging the cold shape allocates %v objects/op, want <= %d", allocs, bound)
	}
}
