// Package plancache memoizes computed mapping plans behind a
// content-addressed cache, the run-time-decomposition idea of Paulino &
// Delgado applied to the paper's mapper: a plan is fully determined by
// (workload spec, topology, scheme, balance threshold, α/β), so the cache
// key is a cryptographic hash of the canonical JSON encoding of that tuple
// and repeated requests are served from memory in microseconds instead of
// re-running hierarchical clustering.
//
// The package is layered: a Cache owns memoization concerns —
// instrumentation hooks and deduplication of concurrent misses for the
// same key ("singleflight": when n requests race on a cold key, one
// computes and the other n−1 wait for its result) — while the entries
// themselves live in a pluggable Store (see store.go). The default Store
// is the in-memory MemStore LRU; disk-backed or remote tiers plug in
// behind the same seam without touching the singleflight machinery.
//
// The cache is safe for concurrent use.
package plancache

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"repro/internal/obs"
)

// Key is the content address of a plan: a SHA-256 over the canonical
// encoding of everything the plan depends on.
type Key [sha256.Size]byte

// String returns the hexadecimal form of the key.
func (k Key) String() string { return hex.EncodeToString(k[:]) }

// KeyOf computes the content address of spec. The spec is canonicalized by
// JSON encoding (struct fields encode in declaration order, so equal specs
// hash equally); it must therefore be JSON-encodable.
func KeyOf(spec any) (Key, error) {
	b, err := json.Marshal(spec)
	if err != nil {
		return Key{}, fmt.Errorf("plancache: key spec not encodable: %w", err)
	}
	return sha256.Sum256(b), nil
}

// Cache is the memoization layer over a Store: bounded storage (delegated
// to the store), per-event instrumentation hooks and singleflight
// deduplication of concurrent misses. The hooks are the cache's only
// counters: the server wires them to its metrics registry.
type Cache[V any] struct {
	// mu guards the inflight table. Store calls made while holding it keep
	// lookup-vs-publish atomic: a concurrent Do either sees the stored
	// entry or the in-flight call, never neither.
	mu       sync.Mutex
	store    Store[V]
	inflight map[Key]*call[V]
	// The hooks are set before the cache is shared and read without the
	// lock. OnHit and OnMiss, when non-nil, are invoked once per Do
	// resolution.
	OnHit  func()
	OnMiss func()
	// OnEvict, when non-nil, is invoked for every evicted value.
	OnEvict func(Key, V)
	// OnCoalesced, when non-nil, is invoked whenever a Do caller becomes a
	// waiter on an in-flight computation.
	OnCoalesced func()
	// OnReelect, when non-nil, is invoked whenever a waiter re-enters
	// leader election after its leader was canceled.
	OnReelect func()
}

type call[V any] struct {
	done chan struct{}
	val  V
	err  error
	// canceled marks a leader that gave up because its own context was
	// canceled: the result is not cached and not propagated; waiting
	// followers re-elect a successor leader instead.
	canceled bool
}

// New returns a cache over an in-memory LRU store bounded to capacity
// entries (capacity < 1 is raised to 1).
func New[V any](capacity int) *Cache[V] {
	return NewWithStore(NewMemStore[V](capacity))
}

// NewWithStore returns a cache whose entries live in store. The cache adds
// singleflight and instrumentation on top; the store only holds entries.
func NewWithStore[V any](store Store[V]) *Cache[V] {
	return &Cache[V]{
		store:    store,
		inflight: make(map[Key]*call[V]),
	}
}

// put inserts under the lock and returns any evicted entries plus the
// eviction callback to run outside it (nil callback ⇒ empty slice).
func (c *Cache[V]) put(k Key, v V) ([]Evicted[V], func(Key, V)) {
	evicted := c.store.Put(k, v)
	if len(evicted) == 0 || c.OnEvict == nil {
		return nil, nil
	}
	return evicted, c.OnEvict
}

// Do returns the value for k, computing it with fn on a miss, honoring
// ctx. Concurrent calls for the same cold key elect a leader that runs fn
// under its own context; followers wait for the leader's answer or their
// own ctx, whichever comes first. The hit return reports whether the value
// came from cache (or a shared in-flight computation). Errors are not
// cached.
//
// Cancellation does not poison the shared result: a leader whose own
// context is canceled mid-computation marks its call abandoned — nothing
// is cached, the cancellation error is not propagated, and any waiting
// followers re-elect a successor leader among themselves. A follower whose
// own context is canceled while waiting gets its ctx.Err() without
// affecting the in-flight computation.
func (c *Cache[V]) Do(ctx context.Context, k Key, fn func(context.Context) (V, error)) (v V, hit bool, err error) {
	var zero V
	traced := obs.SpanFromContext(ctx) != nil
	for {
		if err := ctx.Err(); err != nil {
			return zero, false, err
		}
		lookupStart := time.Now()
		c.mu.Lock()
		if v, ok := c.store.Get(k); ok {
			c.mu.Unlock()
			if traced {
				obs.Record(ctx, "plancache.lookup", lookupStart, time.Since(lookupStart),
					obs.String("result", "hit"))
			}
			if c.OnHit != nil {
				c.OnHit()
			}
			return v, true, nil
		}
		if cl, ok := c.inflight[k]; ok {
			// Someone is computing this key; wait for their answer.
			c.mu.Unlock()
			if c.OnCoalesced != nil {
				c.OnCoalesced()
			}
			waitStart := time.Now()
			select {
			case <-ctx.Done():
				if traced {
					obs.Record(ctx, "plancache.wait", waitStart, time.Since(waitStart),
						obs.String("outcome", "canceled"))
				}
				return zero, false, ctx.Err()
			case <-cl.done:
			}
			if cl.canceled {
				// Leader abandoned the key; elect a successor.
				if traced {
					obs.Record(ctx, "plancache.wait", waitStart, time.Since(waitStart),
						obs.String("outcome", "reelect"))
				}
				if c.OnReelect != nil {
					c.OnReelect()
				}
				continue
			}
			if traced {
				obs.Record(ctx, "plancache.wait", waitStart, time.Since(waitStart),
					obs.String("outcome", "shared"))
			}
			// Counted as a hit: the work was shared, not repeated.
			if c.OnHit != nil {
				c.OnHit()
			}
			return cl.val, true, cl.err
		}
		cl := &call[V]{done: make(chan struct{})}
		c.inflight[k] = cl
		c.mu.Unlock()
		if c.OnMiss != nil {
			c.OnMiss()
		}

		cctx, csp := obs.StartSpan(ctx, "plancache.compute")
		cl.val, cl.err = fn(cctx)
		if cl.err != nil && ctx.Err() != nil {
			// Leader canceled: abandon the call without caching or
			// propagating the partial result.
			cl.canceled = true
		}
		if csp != nil {
			csp.SetAttr("key", k.String())
			switch {
			case cl.canceled:
				csp.SetAttr("outcome", "canceled")
			case cl.err != nil:
				csp.SetAttr("outcome", "error")
			default:
				csp.SetAttr("outcome", "computed")
			}
			csp.End()
		}
		c.mu.Lock()
		var evicted []Evicted[V]
		var cb func(Key, V)
		if cl.err == nil {
			evicted, cb = c.put(k, cl.val)
		}
		delete(c.inflight, k)
		c.mu.Unlock()
		// Wake followers only after the call left the inflight table, so a
		// retrying follower cannot re-adopt the abandoned call.
		close(cl.done)
		for _, e := range evicted {
			cb(e.Key, e.Val)
		}
		if cl.canceled {
			return zero, false, ctx.Err()
		}
		return cl.val, false, cl.err
	}
}
