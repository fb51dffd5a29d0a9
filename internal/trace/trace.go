// Package trace collects and analyzes chunk-level access traces from the
// simulator: per-level hit counts, client sharing degrees, and per-client
// Mattson stack (reuse) distance histograms. These are the diagnostics used to
// understand *why* a mapping behaves as it does — e.g. the paper's claim
// that the original mapping turns shared-cache reuse into long-distance
// reuse is directly visible as mass moving to larger stack distances.
package trace

import (
	"fmt"
	"math/bits"
	"strings"
)

// Event is one chunk access.
type Event struct {
	Client int
	Chunk  int
	Write  bool
	// HitLevel is the paper-style cache level that served the access
	// (1 = client cache, 2 = I/O node, …); 0 means disk.
	HitLevel int
	TimeMS   float64
}

// Collector accumulates events. The zero value is ready to use.
type Collector struct {
	Events []Event
}

// Record appends an event (implements the iosim trace hook).
func (c *Collector) Record(ev Event) { c.Events = append(c.Events, ev) }

// Len returns the number of recorded events.
func (c *Collector) Len() int { return len(c.Events) }

// SharingDegrees returns, for each chunk, how many distinct clients touch
// it.
func (c *Collector) SharingDegrees() map[int]int {
	clients := make(map[int]map[int]bool)
	for _, ev := range c.Events {
		if clients[ev.Chunk] == nil {
			clients[ev.Chunk] = make(map[int]bool)
		}
		clients[ev.Chunk][ev.Client] = true
	}
	out := make(map[int]int, len(clients))
	for chunk, set := range clients {
		out[chunk] = len(set)
	}
	return out
}

// SharingHistogram buckets chunks by how many clients touch them:
// result[k] = number of chunks shared by exactly k clients.
func (c *Collector) SharingHistogram() map[int]int {
	out := make(map[int]int)
	for _, deg := range c.SharingDegrees() {
		out[deg]++
	}
	return out
}

// HitLevelCounts returns how many accesses were served per level
// (0 = disk).
func (c *Collector) HitLevelCounts() map[int]int64 {
	out := make(map[int]int64)
	for _, ev := range c.Events {
		out[ev.HitLevel]++
	}
	return out
}

// Histogram is a stack distance histogram: exact per-distance counts plus
// power-of-two display buckets. Bucket[i] counts accesses with distance in
// [2^(i−1), 2^i); Bucket[0] counts distance 0 (immediate re-reference).
// Cold counts first touches.
type Histogram struct {
	Buckets []int64
	Cold    int64
	Total   int64
	exact   map[int]int64
}

// bucketOf maps a stack distance to its bucket index.
func bucketOf(d int) int {
	if d <= 0 {
		return 0
	}
	return bits.Len(uint(d))
}

// Add records one distance.
func (h *Histogram) Add(d int) {
	b := bucketOf(d)
	for len(h.Buckets) <= b {
		h.Buckets = append(h.Buckets, 0)
	}
	h.Buckets[b]++
	if h.exact == nil {
		h.exact = make(map[int]int64)
	}
	h.exact[d]++
	h.Total++
}

// AddCold records a first touch.
func (h *Histogram) AddCold() {
	h.Cold++
	h.Total++
}

// HitRateAt returns the fraction of accesses with stack distance < cap —
// exactly the hit rate a fully-associative LRU cache of that capacity
// would see on this stream (Mattson's inclusion property).
func (h *Histogram) HitRateAt(capacity int) float64 {
	if h.Total == 0 {
		return 0
	}
	var hits int64
	for d, n := range h.exact {
		if d < capacity {
			hits += n
		}
	}
	return float64(hits) / float64(h.Total)
}

// String renders the histogram.
func (h *Histogram) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "cold %d / total %d\n", h.Cold, h.Total)
	for b, n := range h.Buckets {
		if n == 0 {
			continue
		}
		lo := 0
		if b > 0 {
			lo = 1 << (b - 1)
		}
		fmt.Fprintf(&sb, "  dist [%d,%d): %d\n", lo, 1<<b, n)
	}
	return sb.String()
}

// ClientStackDistances computes the LRU stack distance histogram of one
// client's stream — the distances its private cache experiences (distance
// = number of distinct chunks the client touched since its previous access
// to the same chunk). It runs Mattson's algorithm with an LRU stack
// (O(n·u) in events × distinct chunks — ample for simulator-scale traces).
func (c *Collector) ClientStackDistances(client int) *Histogram {
	h := &Histogram{}
	var stack []int // front = MRU
	pos := make(map[int]int)
	for _, ev := range c.Events {
		if ev.Client != client {
			continue
		}
		if idx, seen := pos[ev.Chunk]; seen {
			h.Add(idx)
			copy(stack[1:idx+1], stack[:idx])
			stack[0] = ev.Chunk
			for i := 0; i <= idx; i++ {
				pos[stack[i]] = i
			}
		} else {
			h.AddCold()
			stack = append(stack, 0)
			copy(stack[1:], stack[:len(stack)-1])
			stack[0] = ev.Chunk
			for i := range stack {
				pos[stack[i]] = i
			}
		}
	}
	return h
}
