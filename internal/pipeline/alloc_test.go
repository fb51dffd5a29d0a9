package pipeline

import (
	"context"
	"testing"

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
