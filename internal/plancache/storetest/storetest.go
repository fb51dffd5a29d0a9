// Package storetest is the shared conformance suite for implementations of
// the plancache Store seam. Any storage tier — the in-memory LRU, the
// disk-backed plan log, a remote tier — must pass RunStore unchanged; the
// suite asserts the contract the cache's memoization layer depends on, not
// implementation details such as eviction order (LRU vs FIFO vs
// cost-based are all conforming).
package storetest

import (
	"crypto/sha256"
	"fmt"
	"sync"
	"testing"

	"repro/internal/plancache"
)

// Key derives a distinct test key from s.
func Key(s string) plancache.Key {
	return plancache.Key(sha256.Sum256([]byte(s)))
}

// RunStore runs the Store conformance suite against stores built by mk.
// mk is called with the store's entry capacity.
func RunStore(t *testing.T, name string, mk func(capacity int) plancache.Store[string]) {
	t.Run(name+"/RoundTrip", func(t *testing.T) {
		s := mk(8)
		if _, ok := s.Get(Key("absent")); ok {
			t.Fatal("Get on an empty store reported a hit")
		}
		if ev := s.Put(Key("a"), "A"); len(ev) != 0 {
			t.Fatalf("Put under capacity evicted %v", ev)
		}
		if v, ok := s.Get(Key("a")); !ok || v != "A" {
			t.Fatalf("Get(a) = %q, %v; want A, true", v, ok)
		}
		if s.Len() != 1 {
			t.Fatalf("Len = %d, want 1", s.Len())
		}
	})

	t.Run(name+"/Replace", func(t *testing.T) {
		s := mk(8)
		s.Put(Key("a"), "A1")
		if ev := s.Put(Key("a"), "A2"); len(ev) != 0 {
			t.Fatalf("replacing Put evicted %v", ev)
		}
		if v, ok := s.Get(Key("a")); !ok || v != "A2" {
			t.Fatalf("Get(a) = %q, %v; want the replacement A2", v, ok)
		}
		if s.Len() != 1 {
			t.Fatalf("Len after replace = %d, want 1", s.Len())
		}
	})

	t.Run(name+"/CapacityBound", func(t *testing.T) {
		const limit = 4
		s := mk(limit)
		live := map[plancache.Key]string{}
		for i := 0; i < 3*limit; i++ {
			k := Key(fmt.Sprintf("k%d", i))
			v := fmt.Sprintf("v%d", i)
			evicted := s.Put(k, v)
			live[k] = v
			for _, e := range evicted {
				want, ok := live[e.Key]
				if !ok {
					t.Fatalf("evicted %x was never live", e.Key[:4])
				}
				if e.Val != want {
					t.Fatalf("evicted %x carried value %q, want %q", e.Key[:4], e.Val, want)
				}
				delete(live, e.Key)
			}
			if s.Len() > limit {
				t.Fatalf("Len = %d exceeds capacity %d", s.Len(), limit)
			}
			if s.Len() != len(live) {
				t.Fatalf("Len = %d but %d entries were never reported evicted", s.Len(), len(live))
			}
		}
		// Everything not reported evicted must still be retrievable, and
		// everything evicted must be gone.
		for k, v := range live {
			if got, ok := s.Get(k); !ok || got != v {
				t.Fatalf("live entry %x: Get = %q, %v; want %q, true", k[:4], got, ok, v)
			}
		}
		for i := 0; i < 3*limit; i++ {
			k := Key(fmt.Sprintf("k%d", i))
			if _, isLive := live[k]; isLive {
				continue
			}
			if _, ok := s.Get(k); ok {
				t.Fatalf("evicted entry k%d still retrievable", i)
			}
		}
	})

	t.Run(name+"/Concurrent", func(t *testing.T) {
		s := mk(32)
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < 200; i++ {
					k := Key(fmt.Sprintf("c%d", (g+i)%48))
					if i%3 == 0 {
						s.Put(k, fmt.Sprintf("g%d", g))
					} else {
						s.Get(k)
					}
				}
			}(g)
		}
		wg.Wait()
		if s.Len() > 32 {
			t.Fatalf("Len = %d exceeds capacity after concurrent churn", s.Len())
		}
	})
}
