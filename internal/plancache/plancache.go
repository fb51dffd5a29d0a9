// Package plancache memoizes computed mapping plans behind a
// content-addressed cache, the run-time-decomposition idea of Paulino &
// Delgado applied to the paper's mapper: a plan is fully determined by
// (workload spec, topology, scheme, balance threshold, α/β), so the cache
// key is a cryptographic hash of the canonical JSON encoding of that tuple
// and repeated requests are served from memory in microseconds instead of
// re-running hierarchical clustering.
//
// A Cache has two tiers, like the paper's client caches over storage: a
// bounded in-memory LRU it owns, and an optional persistent Disk tier
// (internal/planstore) that answers memory misses and receives every
// computed plan. On top of them it deduplicates concurrent misses for the
// same key ("singleflight": when n requests race on a cold key, one
// computes and the other n−1 wait for its result) and counts how each
// lookup was answered (Stats).
//
// The cache is safe for concurrent use.
package plancache

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
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

// Disk is the optional persistent tier under a Cache's memory LRU. The
// cache calls it under its own lock: Get only on a memory miss, Put with
// every computed value. Put must therefore not block on I/O.
type Disk[V any] interface {
	Get(k Key) (V, bool)
	Put(k Key, v V)
}

// Cache is the two-tier plan cache: a bounded in-memory LRU over an
// optional Disk tier, with singleflight deduplication of concurrent misses.
// It counts its own outcomes; Stats reads them.
type Cache[V any] struct {
	// mu guards the memory tier and the inflight table and is held across
	// disk-tier calls, which keeps lookup-vs-publish atomic: a concurrent
	// Do either sees the stored entry or the in-flight call, never neither.
	mu       sync.Mutex
	mem      *lru[V]
	disk     Disk[V] // nil: memory only
	inflight map[Key]*call[V]

	hits, misses, diskHits, evictions, coalesced, reelected atomic.Int64
}

// Stats counts how a Cache's Do calls were answered.
type Stats struct {
	Hits      int64 // answered by either tier or a shared in-flight computation
	Misses    int64 // led a computation
	DiskHits  int64 // memory misses the disk tier answered
	Evictions int64 // memory-tier evictions, those a promoted disk hit caused included
	Coalesced int64 // waited on another call's in-flight computation
	Reelected int64 // waiters that re-entered leader election after a canceled leader
}

// Stats snapshots the cache's counts.
func (c *Cache[V]) Stats() Stats {
	return Stats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		DiskHits:  c.diskHits.Load(),
		Evictions: c.evictions.Load(),
		Coalesced: c.coalesced.Load(),
		Reelected: c.reelected.Load(),
	}
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

// errLeaderPanicked is the error the followers of a panicking leader get.
var errLeaderPanicked = errors.New("plancache: the computation for this key panicked")

// New returns a cache whose memory tier holds up to capacity entries
// (capacity < 1 is raised to 1) over disk, which may be nil.
func New[V any](capacity int, disk Disk[V]) *Cache[V] {
	return &Cache[V]{
		mem:      newLRU[V](capacity),
		disk:     disk,
		inflight: make(map[Key]*call[V]),
	}
}

// lookupLocked probes memory, then disk; a disk hit is promoted into
// memory. tier names the tier that answered a hit: "memory" or "disk".
func (c *Cache[V]) lookupLocked(k Key) (v V, tier string, ok bool) {
	if v, ok = c.mem.get(k); ok {
		return v, "memory", true
	}
	if c.disk == nil {
		return v, "", false
	}
	if v, ok = c.disk.Get(k); ok {
		c.diskHits.Add(1)
		c.evictions.Add(int64(c.mem.put(k, v)))
	}
	return v, "disk", ok
}

// Do returns the value for k, computing it with fn on a miss, honoring
// ctx. Concurrent calls for the same cold key elect a leader that runs fn
// under its own context; followers wait for the leader's answer or their
// own ctx, whichever comes first. The hit return reports whether the value
// came from either tier (or a shared in-flight computation). Errors are
// not cached.
//
// Cancellation does not poison the shared result: a leader whose own
// context is canceled mid-computation marks its call abandoned — nothing
// is cached, the cancellation error is not propagated, and any waiting
// followers re-elect a successor leader among themselves. A follower whose
// own context is canceled while waiting gets its ctx.Err() without
// affecting the in-flight computation. Neither does a panic in fn: the
// leader releases k and its followers get an error before the panic
// continues up the leader's stack.
func (c *Cache[V]) Do(ctx context.Context, k Key, fn func(context.Context) (V, error)) (v V, hit bool, err error) {
	var zero V
	traced := obs.SpanFromContext(ctx) != nil
	for {
		if err := ctx.Err(); err != nil {
			return zero, false, err
		}
		lookupStart := time.Now()
		c.mu.Lock()
		if v, tier, ok := c.lookupLocked(k); ok {
			c.mu.Unlock()
			if traced {
				obs.Record(ctx, "plancache.lookup", lookupStart, time.Since(lookupStart),
					obs.String("result", "hit"), obs.String("tier", tier))
			}
			c.hits.Add(1)
			return v, true, nil
		}
		if cl, ok := c.inflight[k]; ok {
			// Someone is computing this key; wait for their answer.
			c.mu.Unlock()
			c.coalesced.Add(1)
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
				c.reelected.Add(1)
				continue
			}
			if traced {
				obs.Record(ctx, "plancache.wait", waitStart, time.Since(waitStart),
					obs.String("outcome", "shared"))
			}
			// Counted as a hit: the work was shared, not repeated.
			c.hits.Add(1)
			return cl.val, true, cl.err
		}
		cl := &call[V]{done: make(chan struct{})}
		c.inflight[k] = cl
		c.mu.Unlock()
		c.misses.Add(1)
		c.lead(ctx, k, cl, fn)
		if cl.canceled {
			return zero, false, ctx.Err()
		}
		return cl.val, false, cl.err
	}
}

// lead runs fn as k's leader and publishes the outcome to both tiers and
// to the waiting followers. The publish is deferred so that a panic in fn
// still releases k and wakes the followers with errLeaderPanicked,
// caching nothing, before the panic continues up the leader's stack.
func (c *Cache[V]) lead(ctx context.Context, k Key, cl *call[V], fn func(context.Context) (V, error)) {
	cctx, csp := obs.StartSpan(ctx, "plancache.compute")
	outcome := "panic"
	defer func() {
		if outcome == "panic" {
			cl.err = errLeaderPanicked
		}
		if csp != nil {
			csp.SetAttr("key", k.String())
			csp.SetAttr("outcome", outcome)
			csp.End()
		}
		c.mu.Lock()
		if outcome == "computed" {
			c.evictions.Add(int64(c.mem.put(k, cl.val)))
			if c.disk != nil {
				c.disk.Put(k, cl.val)
			}
		}
		delete(c.inflight, k)
		c.mu.Unlock()
		// Wake followers only after the call left the inflight table, so a
		// retrying follower cannot re-adopt the abandoned call.
		close(cl.done)
	}()
	cl.val, cl.err = fn(cctx)
	switch {
	case cl.err != nil && ctx.Err() != nil:
		// Leader canceled: abandon the call without caching or
		// propagating the partial result.
		cl.canceled = true
		outcome = "canceled"
	case cl.err != nil:
		outcome = "error"
	default:
		outcome = "computed"
	}
}
