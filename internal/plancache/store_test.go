package plancache_test

// The Store seam: the in-memory LRU must pass the shared conformance
// suite, and so must a deliberately different eviction policy (FIFO) —
// proving the suite pins the contract the memoization layer needs, not
// LRU-specific behaviour. The Cache must run identically over any Store.

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/plancache"
	"repro/internal/plancache/storetest"
)

func TestMemStoreConformance(t *testing.T) {
	storetest.RunStore(t, "MemStore", func(capacity int) plancache.Store[string] {
		return plancache.NewMemStore[string](capacity)
	})
}

// fifoStore is a minimal alternative Store: bounded, evicting in insertion
// order, with none of MemStore's recency machinery.
type fifoStore[V any] struct {
	mu       sync.Mutex
	capacity int
	order    []plancache.Key
	entries  map[plancache.Key]V
}

func newFIFOStore[V any](capacity int) *fifoStore[V] {
	if capacity < 1 {
		capacity = 1
	}
	return &fifoStore[V]{capacity: capacity, entries: make(map[plancache.Key]V)}
}

func (s *fifoStore[V]) Get(k plancache.Key) (V, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.entries[k]
	return v, ok
}

func (s *fifoStore[V]) Put(k plancache.Key, v V) []plancache.Evicted[V] {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.entries[k]; ok {
		s.entries[k] = v
		return nil
	}
	s.entries[k] = v
	s.order = append(s.order, k)
	var evicted []plancache.Evicted[V]
	for len(s.order) > s.capacity {
		old := s.order[0]
		s.order = s.order[1:]
		evicted = append(evicted, plancache.Evicted[V]{Key: old, Val: s.entries[old]})
		delete(s.entries, old)
	}
	return evicted
}

func (s *fifoStore[V]) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

func TestFIFOStoreConformance(t *testing.T) {
	storetest.RunStore(t, "FIFO", func(capacity int) plancache.Store[string] {
		return newFIFOStore[string](capacity)
	})
}

// TestCacheOverCustomStore proves the memoization layer is store-agnostic:
// singleflight, hooks and eviction callbacks behave identically when the
// Cache runs over the FIFO double instead of the default LRU.
func TestCacheOverCustomStore(t *testing.T) {
	st := newFIFOStore[int](2)
	c := plancache.NewWithStore[int](st)

	var evictions, coalesced atomic.Int64
	c.OnEvict = func(plancache.Key, int) { evictions.Add(1) }
	c.OnCoalesced = func() { coalesced.Add(1) }

	k1, k2, k3 := storetest.Key("a"), storetest.Key("b"), storetest.Key("c")
	var computes atomic.Int64
	compute := func(v int) func(context.Context) (int, error) {
		return func(context.Context) (int, error) { computes.Add(1); return v, nil }
	}

	if v, hit, err := c.Do(context.Background(), k1, compute(1)); v != 1 || hit || err != nil {
		t.Fatalf("cold Do = %d, %v, %v", v, hit, err)
	}
	if v, hit, err := c.Do(context.Background(), k1, compute(99)); v != 1 || !hit || err != nil {
		t.Fatalf("warm Do = %d, %v, %v; want the memoized 1", v, hit, err)
	}
	if computes.Load() != 1 {
		t.Fatalf("computes = %d, want 1", computes.Load())
	}

	// Concurrent cold misses on one key share a single computation.
	k := storetest.Key("singleflight")
	release := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, _, err := c.Do(context.Background(), k, func(context.Context) (int, error) {
				computes.Add(1)
				<-release
				return 7, nil
			})
			if v != 7 || err != nil {
				t.Errorf("singleflight Do = %d, %v", v, err)
			}
		}()
	}
	for coalesced.Load() < 7 {
		runtime.Gosched() // spin until every follower attached
	}
	close(release)
	wg.Wait()
	if got := computes.Load(); got != 2 {
		t.Fatalf("computes after singleflight = %d, want 2", got)
	}

	// FIFO eviction propagates through the cache's eviction callback.
	c.Do(context.Background(), k2, compute(2))
	c.Do(context.Background(), k3, compute(3))
	if evictions.Load() != 2 {
		t.Fatalf("evictions = %d, want 2 after overflowing capacity 2 with 4 keys", evictions.Load())
	}
	if st.Len() != 2 {
		t.Fatalf("Len = %d, want 2", st.Len())
	}
}
