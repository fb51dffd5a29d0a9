package planstore

import (
	"sync"
	"sync/atomic"

	"repro/internal/plancache"
)

// WriteBehind is the plan cache's disk tier (a plancache.Disk): reads go
// straight to the Log, which the cache consults only on a memory miss,
// and writes are appended by a single writer goroutine fed through a
// bounded non-blocking queue, so the plan-cache critical section — which
// holds the cache mutex across Disk.Put — never waits on disk I/O. Under
// sustained pressure the queue drops writes rather than blocking
// (counted; a dropped write only costs a future warm-start, never a
// served response).
type WriteBehind[V any] struct {
	log *Log[V]

	mu     sync.RWMutex // guards closed vs. sends on ch
	closed bool
	ch     chan wbItem[V]
	done   chan struct{}

	hits, dropped atomic.Int64
	writerGate    chan struct{} // test hook: non-nil stalls the writer
}

type wbItem[V any] struct {
	key     plancache.Key
	val     V
	flushed chan struct{} // non-nil marks a flush sentinel
}

// NewWriteBehind puts log behind a write queue and starts its writer
// goroutine. queueLen bounds the queue (minimum 1).
func NewWriteBehind[V any](log *Log[V], queueLen int) *WriteBehind[V] {
	return newWriteBehind(log, queueLen, nil)
}

// newWriteBehind is the gated variant: a non-nil gate stalls the writer
// goroutine until the gate is fed, letting tests fill the queue
// deterministically. The gate is fixed before the writer starts, so it
// needs no synchronization.
func newWriteBehind[V any](log *Log[V], queueLen int, gate chan struct{}) *WriteBehind[V] {
	if queueLen < 1 {
		queueLen = 1
	}
	w := &WriteBehind[V]{
		log:        log,
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
			w.log.Sync()
			close(item.flushed)
			continue
		}
		w.log.Put(item.key, item.val)
		// Batch fsync: sync once when the queue drains rather than once
		// per record, amortizing the flush across the burst.
		if w.log.opts.Fsync == FsyncBatch && len(w.ch) == 0 {
			w.log.Sync()
		}
	}
}

// Get reads k from the log. The cache calls it only on a memory miss, so
// every hit counts as a disk hit.
func (w *WriteBehind[V]) Get(k plancache.Key) (V, bool) {
	v, ok := w.log.Get(k)
	if ok {
		w.hits.Add(1)
	}
	return v, ok
}

// Put enqueues the disk append of k → v; a full queue drops the write and
// counts it, and a closed store ignores it.
func (w *WriteBehind[V]) Put(k plancache.Key, v V) {
	w.mu.RLock()
	defer w.mu.RUnlock()
	if w.closed {
		return
	}
	select {
	case w.ch <- wbItem[V]{key: k, val: v}:
	default:
		w.dropped.Add(1)
	}
}

// Stats reports the disk hits, the dropped writes and the current queue
// depth.
func (w *WriteBehind[V]) Stats() (hits, dropped int64, depth int) {
	return w.hits.Load(), w.dropped.Load(), len(w.ch)
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
	return w.log.Close()
}
