package pipeline

import (
	"context"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/race"
)

// TestAllocEncodeAssignment: encoding the cold shape's assignment takes two
// allocations, the assignment and the one block slab every client's list
// is carved from (ci.sh runs every TestAlloc* with GOGC=off).
func TestAllocEncodeAssignment(t *testing.T) {
	if race.Enabled {
		t.Skip("the alloc gate runs without -race")
	}
	tree := parseTree(t, "16/32/64@16,8,4")
	assign, err := Distribute(context.Background(), coldSynth(t, 4096, 64, 0), tree, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(20, func() { encodeAssignment(assign) }); allocs > 2 {
		t.Fatalf("encodeAssignment allocates %v objects/op on the cold shape, want at most 2", allocs)
	}
}

// TestAllocStageLedger: a run's ledger is one fixed slot per stage, so a
// Run that times all seven stages, takes a distributor phase and a pair
// count, and reports its Timings allocates the Run and the returned slice.
func TestAllocStageLedger(t *testing.T) {
	if race.Enabled {
		t.Skip("the alloc gate runs without -race")
	}
	names := StageNames()
	noop := func(context.Context) error { return nil }
	allocs := testing.AllocsPerRun(100, func() {
		r := NewRun(context.Background())
		for _, name := range names {
			if err := r.stage(name, noop); err != nil {
				t.Fatal(err)
			}
		}
		r.RecordPhase(StageBalance, time.Now(), time.Millisecond)
		r.RecordSimilarityPairs(3, 6)
		if len(r.Timings()) != len(names) {
			t.Fatal("ledger lost a stage")
		}
	})
	if allocs > 2 {
		t.Fatalf("a seven-stage run's ledger allocates %v objects, want at most 2", allocs)
	}
}
