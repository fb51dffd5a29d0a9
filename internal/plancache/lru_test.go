package plancache

import (
	"context"
	"fmt"
	"sync"
	"testing"
)

// TestLRU pins the memory tier's contract, through the Cache where the
// Cache can reach it: Do never replaces a stored key (only StaleTier.Put
// does), so Replace and Recency drive the LRU directly.
func TestLRU(t *testing.T) {
	ctx := context.Background()

	t.Run("RoundTrip", func(t *testing.T) {
		c := New[string](8, nil)
		if _, ok := c.mem.peek(key(t, "absent")); ok {
			t.Fatal("empty memory tier reported an entry")
		}
		if v, hit, err := c.Do(ctx, key(t, "a"), value("A")); v != "A" || hit || err != nil {
			t.Fatalf("cold Do = %q, %v, %v", v, hit, err)
		}
		if v, hit, err := c.Do(ctx, key(t, "a"), value("other")); v != "A" || !hit || err != nil {
			t.Fatalf("warm Do = %q, %v, %v; want the stored A", v, hit, err)
		}
		if n := len(c.mem.entries); n != 1 {
			t.Fatalf("%d entries, want 1", n)
		}
	})

	t.Run("Replace", func(t *testing.T) {
		l := newLRU[string](8)
		if n := l.put(key(t, "a"), "A1"); n != 0 {
			t.Fatalf("first put evicted %d", n)
		}
		if n := l.put(key(t, "a"), "A2"); n != 0 {
			t.Fatalf("replacing put evicted %d", n)
		}
		if v, ok := l.get(key(t, "a")); !ok || v != "A2" {
			t.Fatalf("get(a) = %q, %v; want the replacement A2", v, ok)
		}
		if n := len(l.entries); n != 1 || l.ll.Len() != 1 {
			t.Fatalf("%d entries (%d listed) after replace, want 1", n, l.ll.Len())
		}
	})

	t.Run("Recency", func(t *testing.T) {
		l := newLRU[int](4)
		for i := 0; i < 4; i++ {
			l.put(key(t, i), i)
		}
		l.get(key(t, 0)) // refreshes k0: k1 is now least recent
		if n := l.put(key(t, 4), 4); n != 1 {
			t.Fatalf("put over capacity evicted %d, want 1", n)
		}
		if _, ok := l.peek(key(t, 1)); ok {
			t.Fatal("k1 survived; get did not refresh k0")
		}
		l.peek(key(t, 2)) // does not refresh k2: it stays least recent
		l.put(key(t, 5), 5)
		if _, ok := l.peek(key(t, 2)); ok {
			t.Fatal("k2 survived; peek refreshed it")
		}
		for _, i := range []int{0, 3, 4, 5} {
			if v, ok := l.peek(key(t, i)); !ok || v != i {
				t.Fatalf("k%d = %d, %v; want %d, true", i, v, ok, i)
			}
		}
	})

	t.Run("CapacityBound", func(t *testing.T) {
		const limit = 4
		c := New[string](limit, nil)
		evictions := 0
		c.OnEvict = func() { evictions++ }
		for i := 0; i < 3*limit; i++ {
			c.Do(ctx, key(t, i), value(fmt.Sprintf("v%d", i)))
			if want := max(0, i+1-limit); evictions != want {
				t.Fatalf("after %d keys: %d evictions, want %d", i+1, evictions, want)
			}
			if n := len(c.mem.entries); n > limit || c.mem.ll.Len() != n {
				t.Fatalf("%d entries (%d listed), capacity %d", n, c.mem.ll.Len(), limit)
			}
		}
		// The most recent limit keys stay; every older one is gone.
		for i := 0; i < 3*limit; i++ {
			v, ok := c.mem.peek(key(t, i))
			if live := i >= 2*limit; ok != live || (live && v != fmt.Sprintf("v%d", i)) {
				t.Fatalf("k%d: %q, %v; want live = %v", i, v, ok, live)
			}
		}
	})

	t.Run("Concurrent", func(t *testing.T) {
		const limit = 32
		c := New[string](limit, nil)
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < 200; i++ {
					n := (g + i) % 48
					want := fmt.Sprintf("v%d", n)
					if v, _, err := c.Do(ctx, key(t, n), value(want)); v != want || err != nil {
						t.Errorf("Do(k%d) = %q, %v", n, v, err)
						return
					}
				}
			}(g)
		}
		wg.Wait()
		if n := len(c.mem.entries); n > limit || c.mem.ll.Len() != n {
			t.Fatalf("%d entries (%d listed) after concurrent churn, capacity %d", n, c.mem.ll.Len(), limit)
		}
	})
}
