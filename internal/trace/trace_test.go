package trace

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/chunking"
	"repro/internal/hierarchy"
	"repro/internal/iosim"
	"repro/internal/itset"
	"repro/internal/polyhedral"
)

func ev(client, chunk int) Event { return Event{Client: client, Chunk: chunk} }

func TestChunkCountsAndSharing(t *testing.T) {
	var c Collector
	c.Record(ev(0, 5))
	c.Record(ev(0, 5))
	c.Record(ev(1, 5))
	c.Record(ev(1, 7))
	if c.Len() != 4 {
		t.Fatalf("Len = %d", c.Len())
	}
	deg := c.SharingDegrees()
	if deg[5] != 2 || deg[7] != 1 {
		t.Fatalf("degrees = %v", deg)
	}
	hist := c.SharingHistogram()
	if hist[1] != 1 || hist[2] != 1 {
		t.Fatalf("sharing histogram = %v", hist)
	}
}

func TestHitLevelCounts(t *testing.T) {
	var c Collector
	c.Record(Event{HitLevel: 1})
	c.Record(Event{HitLevel: 1})
	c.Record(Event{HitLevel: 0})
	got := c.HitLevelCounts()
	if got[1] != 2 || got[0] != 1 {
		t.Fatalf("HitLevelCounts = %v", got)
	}
}

func TestStackDistancesSimple(t *testing.T) {
	var c Collector
	// A B A: A's re-reference has distance 1 (B in between).
	c.Record(ev(0, 1))
	c.Record(ev(0, 2))
	c.Record(ev(0, 1))
	h := c.ClientStackDistances(0)
	if h.Cold != 2 || h.Total != 3 {
		t.Fatalf("cold/total = %d/%d", h.Cold, h.Total)
	}
	// Distance 1 lands in bucket 1 ([1,2)).
	if len(h.Buckets) < 2 || h.Buckets[1] != 1 {
		t.Fatalf("buckets = %v", h.Buckets)
	}
}

func TestStackDistanceZero(t *testing.T) {
	var c Collector
	c.Record(ev(0, 1))
	c.Record(ev(0, 1)) // immediate re-reference: distance 0
	h := c.ClientStackDistances(0)
	if h.Buckets[0] != 1 {
		t.Fatalf("bucket0 = %v", h.Buckets)
	}
	if h.HitRateAt(1) != 0.5 {
		t.Fatalf("HitRateAt(1) = %v", h.HitRateAt(1))
	}
}

func TestClientStackDistancesFilter(t *testing.T) {
	var c Collector
	c.Record(ev(0, 1))
	c.Record(ev(1, 9)) // interloper, different client
	c.Record(ev(0, 1))
	local := c.ClientStackDistances(0)
	// Client 0's reuse distance is 0: the interloper's chunk 9 is filtered
	// out (in the merged stream it would be 1).
	if local.Buckets[0] != 1 || local.Total != 2 {
		t.Fatalf("local buckets = %v", local.Buckets)
	}
}

// Property: stack-distance hit rates are monotone in capacity, and the
// histogram total equals the client's event count.
func TestPropertyStackDistanceMonotone(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var c Collector
		n := 50 + r.Intn(300)
		var own int64
		for i := 0; i < n; i++ {
			e := ev(r.Intn(3), r.Intn(20))
			if e.Client == 0 {
				own++
			}
			c.Record(e)
		}
		h := c.ClientStackDistances(0)
		if h.Total != own {
			return false
		}
		prev := 0.0
		for capacity := 1; capacity <= 64; capacity *= 2 {
			hr := h.HitRateAt(capacity)
			if hr < prev-1e-12 {
				return false
			}
			prev = hr
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: the Mattson hit rate at capacity K matches an actual LRU cache
// of capacity K run over the same single-client trace (inclusion property,
// cross-checked against the real cache implementation).
func TestPropertyMattsonMatchesLRU(t *testing.T) {
	f := func(seed int64, capRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		capacity := 1 + int(capRaw%16)
		var c Collector
		refs := make([]int, 200)
		for i := range refs {
			refs[i] = r.Intn(24)
			c.Record(ev(0, refs[i]))
		}
		// Simulate plain LRU.
		var stack []int
		hits := 0
		for _, ch := range refs {
			found := -1
			for i, v := range stack {
				if v == ch {
					found = i
					break
				}
			}
			if found >= 0 {
				hits++
				stack = append(stack[:found], stack[found+1:]...)
			} else if len(stack) >= capacity {
				stack = stack[:len(stack)-1]
			}
			stack = append([]int{ch}, stack...)
		}
		want := float64(hits) / float64(len(refs))
		got := c.ClientStackDistances(0).HitRateAt(capacity)
		return got > want-1e-9 && got < want+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Integration: the iosim TraceSink feeds the collector; miss accounting
// from the trace matches the simulator's cache stats.
func TestTraceSinkIntegration(t *testing.T) {
	tree := hierarchy.NewLayered(
		hierarchy.LayerSpec{Count: 1, CacheChunks: 100, Label: "SN"},
		hierarchy.LayerSpec{Count: 2, CacheChunks: 100, Label: "IO"},
		hierarchy.LayerSpec{Count: 4, CacheChunks: 100, Label: "CN"},
	)
	nest := polyhedral.NewNest("scan", []int64{0}, []int64{63})
	data := chunking.NewDataSpace(32, chunking.Array{Name: "A", Dims: []int64{64}, ElemSize: 8})
	prog := iosim.Program{
		Nest: nest,
		Refs: []polyhedral.Ref{polyhedral.SimpleRef(0, 1, []int{0}, []int64{0}, polyhedral.Read)},
		Data: data,
	}
	var col Collector
	p := iosim.DefaultParams()
	p.TraceSink = func(client, chunk int, write bool, hitLevel int, timeMS float64) {
		col.Record(Event{Client: client, Chunk: chunk, Write: write, HitLevel: hitLevel, TimeMS: timeMS})
	}
	asg := iosim.Assignment{{{Set: itset.Interval(0, 64)}}, nil, nil, nil}
	m, err := iosim.Run(tree, prog, asg, p)
	if err != nil {
		t.Fatal(err)
	}
	if int64(col.Len()) != m.StatsL(1).Accesses {
		t.Fatalf("trace has %d events, L1 saw %d accesses", col.Len(), m.StatsL(1).Accesses)
	}
	levels := col.HitLevelCounts()
	if levels[1] != m.StatsL(1).Hits {
		t.Fatalf("trace L1 hits %d vs stats %d", levels[1], m.StatsL(1).Hits)
	}
	if levels[0] != m.DiskReads {
		t.Fatalf("trace disk accesses %d vs DiskReads %d", levels[0], m.DiskReads)
	}
}
