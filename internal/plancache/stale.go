package plancache

import (
	"container/list"
	"sync"
	"time"
)

// TopoSig is a compact structural summary of a cache hierarchy: the node
// count and per-node cache capacity of each layer, top-down. Two
// signatures "drift within tolerance" when they have the same depth and
// every layer's counts differ by at most the given relative fraction —
// the criterion under which a plan computed for one topology is still a
// usable approximation for another (the clustering keys on the shape of
// the hierarchy, not exact node counts).
type TopoSig struct {
	Levels []TopoLevel `json:"levels"`
}

// TopoLevel is one layer of a TopoSig.
type TopoLevel struct {
	Nodes       int `json:"nodes"`
	CacheChunks int `json:"cache_chunks"`
}

// DriftWithin reports whether b is a tolerable drift from a: identical
// depth, and per layer both the node count and the cache capacity differ
// by at most tol relatively (|x−y| ≤ tol·max(x,y)). tol 0 demands exact
// equality.
func (a TopoSig) DriftWithin(b TopoSig, tol float64) bool {
	if len(a.Levels) != len(b.Levels) {
		return false
	}
	for i := range a.Levels {
		if !within(a.Levels[i].Nodes, b.Levels[i].Nodes, tol) ||
			!within(a.Levels[i].CacheChunks, b.Levels[i].CacheChunks, tol) {
			return false
		}
	}
	return true
}

func within(x, y int, tol float64) bool {
	if x == y {
		return true
	}
	d, m := x-y, x
	if d < 0 {
		d = -d
	}
	if y > m {
		m = y
	}
	return float64(d) <= tol*float64(m)
}

// StaleTier is the drift-tolerant side channel of the plan cache: a
// bounded LRU keyed by a workload-only content hash (the plan key with the
// topology erased), remembering the most recent good plan per workload
// together with the topology it was computed for. The server consults it
// for two decisions under different tolerances: serving a stale-but-valid
// plan unmodified under overload, and repairing a cached clustering for a
// near-miss topology. Each caller counts its own hits and misses.
//
// The tier is deliberately lossy — one entry per workload key, refreshed
// on every successful computation — and safe for concurrent use.
type StaleTier[V any] struct {
	mu       sync.Mutex
	capacity int
	ll       *list.List // front = most recently used
	entries  map[Key]*list.Element
}

type staleEntry[V any] struct {
	key    Key
	sig    TopoSig
	val    V
	stored time.Time
}

// NewStaleTier returns a tier bounded to capacity workload entries
// (capacity < 1 is raised to 1).
func NewStaleTier[V any](capacity int) *StaleTier[V] {
	if capacity < 1 {
		capacity = 1
	}
	return &StaleTier[V]{
		capacity: capacity,
		ll:       list.New(),
		entries:  make(map[Key]*list.Element),
	}
}

// Put records v as the latest good plan for workload key k, computed for
// the topology summarized by sig. An existing entry for k is replaced.
func (s *StaleTier[V]) Put(k Key, sig TopoSig, v V) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.entries[k]; ok {
		e := el.Value.(*staleEntry[V])
		e.sig, e.val, e.stored = sig, v, time.Now()
		s.ll.MoveToFront(el)
		return
	}
	s.entries[k] = s.ll.PushFront(&staleEntry[V]{key: k, sig: sig, val: v, stored: time.Now()})
	for s.ll.Len() > s.capacity {
		el := s.ll.Back()
		s.ll.Remove(el)
		delete(s.entries, el.Value.(*staleEntry[V]).key)
	}
}

// Get returns the entry for workload key k if its recorded topology drifts
// from sig within tol: the value, the exact signature it was computed for
// (so a repair can tell zero drift from a genuine adaptation) and its age.
// A usable entry refreshes its recency.
func (s *StaleTier[V]) Get(k Key, sig TopoSig, tol float64) (v V, cached TopoSig, age time.Duration, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	el, found := s.entries[k]
	if !found {
		return v, TopoSig{}, 0, false
	}
	e := el.Value.(*staleEntry[V])
	if !e.sig.DriftWithin(sig, tol) {
		return v, TopoSig{}, 0, false
	}
	s.ll.MoveToFront(el)
	return e.val, e.sig, time.Since(e.stored), true
}

// Len returns the number of retained workload entries.
func (s *StaleTier[V]) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ll.Len()
}
