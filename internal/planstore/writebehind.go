package planstore

import (
	"sync"

	"repro/internal/plancache"
)

// WriteBehind layers an in-memory front store (the LRU) over a Log: reads
// hit memory first and fall through to disk (promoting hits back into
// memory); writes land in memory synchronously and are appended to disk by
// a single writer goroutine fed through a bounded non-blocking queue, so
// the plan-cache critical section — which holds the cache mutex across
// Store.Put — never waits on disk I/O. Under sustained pressure the queue
// drops writes rather than blocking (counted; a dropped write only costs a
// future warm-start, never a served response).
//
// WriteBehind implements plancache.Store[V], so the plan cache's
// singleflight and counters sit unchanged on top of the whole hierarchy:
// memory, then disk, then (a miss on both) the ring/pipeline.
type WriteBehind[V any] struct {
	front plancache.Store[V]
	back  *Log[V]

	mu     sync.RWMutex // guards closed vs. sends on ch
	closed bool
	ch     chan wbItem[V]
	done   chan struct{}

	cmu                 sync.Mutex
	promotions, dropped int64
	enqueued            int64
	writerGate          chan struct{} // test hook: non-nil stalls the writer
}

type wbItem[V any] struct {
	key     plancache.Key
	val     V
	put     bool
	flushed chan struct{} // non-nil marks a flush sentinel
}

var _ plancache.Store[int] = (*WriteBehind[int])(nil)

// NewWriteBehind builds the two-tier store and starts its writer
// goroutine. queueLen bounds the write-behind queue (minimum 1).
func NewWriteBehind[V any](front plancache.Store[V], back *Log[V], queueLen int) *WriteBehind[V] {
	return newWriteBehind(front, back, queueLen, nil)
}

// newWriteBehind is the gated variant: a non-nil gate stalls the writer
// goroutine until the gate is fed, letting tests fill the queue
// deterministically. The gate is fixed before the writer starts, so it
// needs no synchronization.
func newWriteBehind[V any](front plancache.Store[V], back *Log[V], queueLen int, gate chan struct{}) *WriteBehind[V] {
	if queueLen < 1 {
		queueLen = 1
	}
	w := &WriteBehind[V]{
		front:      front,
		back:       back,
		ch:         make(chan wbItem[V], queueLen),
		done:       make(chan struct{}),
		writerGate: gate,
	}
	go w.writer()
	return w
}

func (w *WriteBehind[V]) writer() {
	defer close(w.done)
	for item := range w.ch {
		if w.writerGate != nil {
			<-w.writerGate
		}
		if item.flushed != nil {
			w.back.Sync()
			close(item.flushed)
			continue
		}
		if item.put {
			w.back.Put(item.key, item.val)
		}
		// Batch fsync: sync once when the queue drains rather than once
		// per record, amortizing the flush across the burst.
		if w.back.opts.Fsync == FsyncBatch && len(w.ch) == 0 {
			w.back.Sync()
		}
	}
}

// Get serves from memory when it can; on a memory miss it consults disk
// and promotes the hit back into the front store (evictions from that
// promotion are ignored — the displaced entries are still on disk).
func (w *WriteBehind[V]) Get(k plancache.Key) (V, bool) {
	if v, ok := w.front.Get(k); ok {
		return v, true
	}
	v, ok := w.back.Get(k)
	if ok {
		w.front.Put(k, v)
		w.cmu.Lock()
		w.promotions++
		w.cmu.Unlock()
	}
	return v, ok
}

// Put stores into memory and enqueues the disk append. Front-store
// evictions are swallowed (the evicted entries remain readable from disk);
// a full queue drops the disk write and counts it.
func (w *WriteBehind[V]) Put(k plancache.Key, v V) []plancache.Evicted[V] {
	w.front.Put(k, v)
	w.mu.RLock()
	defer w.mu.RUnlock()
	if w.closed {
		return nil
	}
	select {
	case w.ch <- wbItem[V]{key: k, val: v, put: true}:
		w.cmu.Lock()
		w.enqueued++
		w.cmu.Unlock()
	default:
		w.cmu.Lock()
		w.dropped++
		w.cmu.Unlock()
	}
	return nil
}

// Len reports the disk tier's live-record count — the authoritative size
// of the persistent cache (the front store is a subset of it, modulo
// queued writes).
func (w *WriteBehind[V]) Len() int { return w.back.Len() }

// Stats reports the write-behind tier's own counters.
func (w *WriteBehind[V]) Stats() (promotions, dropped, enqueued int64, depth int) {
	w.cmu.Lock()
	defer w.cmu.Unlock()
	return w.promotions, w.dropped, w.enqueued, len(w.ch)
}

// Flush blocks until every write enqueued before the call has reached the
// log and been synced. Returns false if the store is closed.
func (w *WriteBehind[V]) Flush() bool {
	w.mu.RLock()
	if w.closed {
		w.mu.RUnlock()
		return false
	}
	sentinel := wbItem[V]{flushed: make(chan struct{})}
	w.ch <- sentinel
	w.mu.RUnlock()
	<-sentinel.flushed
	return true
}

// Close drains the queue, stops the writer and closes the log.
func (w *WriteBehind[V]) Close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	w.closed = true
	close(w.ch)
	w.mu.Unlock()
	<-w.done
	return w.back.Close()
}
