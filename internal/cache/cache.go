// Package cache implements the chunk-granularity storage caches that sit at
// every node of the hierarchy. The paper manages all storage caches with
// LRU at data-chunk granularity; FIFO and CLOCK are provided as ablation
// policies (the paper notes its mapping works with any caching policy).
package cache

import "fmt"

// Stats accumulates hit/miss counts for one cache.
type Stats struct {
	Accesses int64
	Hits     int64
}

// Misses returns the number of missed accesses.
func (s Stats) Misses() int64 { return s.Accesses - s.Hits }

// MissRate returns misses/accesses, or 0 for an untouched cache.
func (s Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses()) / float64(s.Accesses)
}

// Add merges another Stats into s.
func (s *Stats) Add(o Stats) {
	s.Accesses += o.Accesses
	s.Hits += o.Hits
}

// Eviction describes a chunk pushed out of a cache by an Insert.
type Eviction struct {
	Chunk int
	Dirty bool
}

// Cache is a fixed-capacity chunk cache. Implementations are not
// goroutine-safe; the simulator serializes access per cache.
type Cache interface {
	// Lookup probes for a chunk, updating recency/reference state and the
	// hit/miss statistics. dirty marks the chunk dirty on a hit (writes).
	Lookup(chunk int, dirty bool) bool
	// Insert adds a missing chunk (caller must have seen Lookup miss) and
	// returns the eviction it caused, if any. Inserting a resident chunk is
	// a no-op apart from the dirty bit.
	Insert(chunk int, dirty bool) (Eviction, bool)
	// Contains probes without touching recency or statistics.
	Contains(chunk int) bool
	// Remove drops a chunk without recording an eviction (used by
	// exclusive-caching promotion). Removing an absent chunk is a no-op;
	// the dirty state of the removed chunk is returned so callers can
	// carry it upward.
	Remove(chunk int) (dirty bool)
	// Len returns the number of resident chunks.
	Len() int
	// Capacity returns the configured capacity in chunks.
	Capacity() int
	// Stats returns the accumulated statistics.
	Stats() Stats
	// ResetStats zeroes the statistics, keeping contents.
	ResetStats()
	// Name identifies the replacement policy.
	Name() string
}

// PolicyKind selects a replacement policy.
type PolicyKind uint8

const (
	LRU PolicyKind = iota
	FIFO
	CLOCK
	MQ
)

func (p PolicyKind) String() string {
	switch p {
	case LRU:
		return "lru"
	case FIFO:
		return "fifo"
	case CLOCK:
		return "clock"
	case MQ:
		return "mq"
	}
	return fmt.Sprintf("policy(%d)", p)
}

// ParsePolicy converts a policy name to its PolicyKind.
func ParsePolicy(s string) (PolicyKind, error) {
	switch s {
	case "lru":
		return LRU, nil
	case "fifo":
		return FIFO, nil
	case "clock":
		return CLOCK, nil
	case "mq":
		return MQ, nil
	}
	return LRU, fmt.Errorf("cache: unknown policy %q", s)
}

// New builds a cache of the given policy and capacity (in chunks).
// A capacity of zero yields a pass-through cache that misses everything.
func New(policy PolicyKind, capacity int) Cache {
	if capacity < 0 {
		panic(fmt.Sprintf("cache: negative capacity %d", capacity))
	}
	if capacity == 0 {
		return &nullCache{}
	}
	switch policy {
	case LRU:
		return newLRU(capacity)
	case FIFO:
		return newFIFO(capacity)
	case CLOCK:
		return newCLOCK(capacity)
	case MQ:
		return newMQ(capacity)
	}
	panic(fmt.Sprintf("cache: unknown policy %v", policy))
}

// nullCache is the zero-capacity cache: every lookup misses, inserts are
// dropped. It models cache-less nodes such as the dummy root.
type nullCache struct{ stats Stats }

func (c *nullCache) Lookup(chunk int, dirty bool) bool {
	c.stats.Accesses++
	return false
}
func (c *nullCache) Insert(chunk int, dirty bool) (Eviction, bool) { return Eviction{}, false }
func (c *nullCache) Contains(chunk int) bool                       { return false }
func (c *nullCache) Remove(chunk int) bool                         { return false }
func (c *nullCache) Len() int                                      { return 0 }
func (c *nullCache) Capacity() int                                 { return 0 }
func (c *nullCache) Stats() Stats                                  { return c.stats }
func (c *nullCache) ResetStats()                                   { c.stats = Stats{} }
func (c *nullCache) Name() string                                  { return "null" }
