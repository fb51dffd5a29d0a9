package plancache

import (
	"container/list"
	"sync"
)

// Store is the pluggable storage tier under the cache's memoization layer:
// a bounded key→value map. The Cache owns singleflight, counters and
// instrumentation; a Store only holds entries. Implementations must be
// safe for concurrent use.
//
// The in-memory implementation is MemStore (an LRU); the ROADMAP's
// disk-backed warm-start tier plugs in behind the same interface. The
// shared conformance suite for implementations lives in
// internal/plancache/storetest.
type Store[V any] interface {
	// Get returns the value stored under k, refreshing its retention
	// priority where the store is bounded by recency.
	Get(k Key) (V, bool)
	// Put inserts (or replaces) k → v and returns the entries the insert
	// displaced by capacity pressure, if any.
	Put(k Key, v V) []Evicted[V]
	// Len returns the number of stored entries.
	Len() int
}

// Evicted is one entry displaced from a Store by capacity pressure.
type Evicted[V any] struct {
	Key Key
	Val V
}

var _ Store[int] = (*MemStore[int])(nil)

// MemStore is the in-memory Store: a bounded LRU map. Safe for concurrent
// use.
type MemStore[V any] struct {
	mu       sync.Mutex
	capacity int
	ll       *list.List // front = most recently used
	entries  map[Key]*list.Element
}

type memEntry[V any] struct {
	key Key
	val V
}

// NewMemStore returns an LRU store bounded to capacity entries
// (capacity < 1 is raised to 1).
func NewMemStore[V any](capacity int) *MemStore[V] {
	if capacity < 1 {
		capacity = 1
	}
	return &MemStore[V]{
		capacity: capacity,
		ll:       list.New(),
		entries:  make(map[Key]*list.Element),
	}
}

// Get returns the stored value for k, if present, refreshing its recency.
func (s *MemStore[V]) Get(k Key) (V, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.entries[k]
	if !ok {
		var zero V
		return zero, false
	}
	s.ll.MoveToFront(el)
	return el.Value.(*memEntry[V]).val, true
}

// Put inserts (or refreshes) k → v, evicting least recently used entries
// when over capacity and returning them.
func (s *MemStore[V]) Put(k Key, v V) []Evicted[V] {
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.entries[k]; ok {
		el.Value.(*memEntry[V]).val = v
		s.ll.MoveToFront(el)
		return nil
	}
	s.entries[k] = s.ll.PushFront(&memEntry[V]{key: k, val: v})
	var evicted []Evicted[V]
	for s.ll.Len() > s.capacity {
		el := s.ll.Back()
		e := el.Value.(*memEntry[V])
		s.ll.Remove(el)
		delete(s.entries, e.key)
		evicted = append(evicted, Evicted[V]{Key: e.key, Val: e.val})
	}
	return evicted
}

// Len returns the number of stored entries.
func (s *MemStore[V]) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ll.Len()
}
