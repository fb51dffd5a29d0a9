// Package join carries a panic from a group of worker goroutines to the
// goroutine that joins them. A fan-out that recovers its workers' panics
// through a Panic and re-raises the first after the join fails where the
// serial code fails, instead of the panic ending the process from a
// worker. Core's subtree fan-out and similarity shards and the tag shards
// all join through it.
package join

import (
	"sync"
	"sync/atomic"
)

// Panic holds the first panic of a group of goroutines. The zero value is
// ready to use. Once a goroutine has panicked the group is stopped; callers
// may also stop it on an error, so that the others take no more work.
type Panic struct {
	stop atomic.Bool
	mu   sync.Mutex
	v    any
}

// Catch recovers the calling goroutine's panic into p. Each goroutine
// defers it directly, since recover only stops a panic when the deferred
// call itself makes it.
func (p *Panic) Catch() {
	if v := recover(); v != nil {
		p.mu.Lock()
		if p.v == nil {
			p.v = v
		}
		p.mu.Unlock()
		p.stop.Store(true)
	}
}

// Stop marks the group stopped.
func (p *Panic) Stop() { p.stop.Store(true) }

// Stopped reports whether a goroutine of the group has panicked or called
// Stop.
func (p *Panic) Stopped() bool { return p.stop.Load() }

// Rethrow re-raises the first recovered panic, if any. Call it after every
// goroutine of the group has returned.
func (p *Panic) Rethrow() {
	if p.v != nil {
		panic(p.v)
	}
}
