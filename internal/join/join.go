// Package join is the one fan-out of the repository: a group of workers
// that calls a function for every index of a range and joins on the
// caller. Core's subtree walk and similarity row shards, the tag shards,
// the batch endpoint's family siblings and loadgen's request pools all
// run through Each, so this is the one place that decides how a worker
// group hands out work, carries a panic and picks an error.
package join

import (
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// Panic is what Each's parallel path re-raises for a call that panicked:
// the panic's value, and the stack of the goroutine that raised it, taken
// before the recover unwound it, so it still holds the panicking frames.
// A panic that is already a *Panic, re-raised by a nested Each, passes
// through as is.
type Panic struct {
	Value any
	Stack []byte
}

// Error prints the panic's value, as the runtime would print it.
func (p *Panic) Error() string { return fmt.Sprint(p.Value) }

// Each calls fn(w, i) for every index i in [0, n) on min(workers, n)
// workers and returns once every call has returned. The caller is worker
// 0; w names the worker running the call, so fn can keep per-worker
// scratch in a slice indexed by w. Workers take indices in ascending order
// as they free up, and a failed or panicking call does not stop the
// others: every index runs.
//
// A panic in fn is recovered on its worker and re-raised on the caller
// once every worker has returned, as a *Panic that keeps the panicking
// goroutine's stack, so it fails where the serial loop fails instead of
// ending the process from a worker goroutine; of several, the one at the
// lowest index is re-raised. Otherwise Each returns the error of the
// lowest failed index, the error the serial loop returns.
//
// With one worker (or n <= 1) Each is a plain loop on the caller: fn runs
// in ascending index order, a panic propagates at once, and Each starts no
// goroutine and allocates nothing of its own.
func Each(workers, n int, fn func(w, i int) error) error {
	if min(workers, n) <= 1 {
		var first error
		for i := range n {
			if err := fn(0, i); err != nil && first == nil {
				first = err
			}
		}
		return first
	}
	return each(min(workers, n), n, fn)
}

// each is Each's parallel path, kept out of Each so that the serial loop
// shares no variables with a goroutine closure.
func each(workers, n int, fn func(w, i int) error) error {
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		mu       sync.Mutex
		errAt    = n // lowest failed index, n if none
		err      error
		panicAt  = n // lowest panicking index, n if none
		panicVal *Panic
	)
	work := func(w int) {
		for {
			i := int(next.Add(1) - 1)
			if i >= n {
				return
			}
			p, e := call(fn, w, i)
			if e == nil && p == nil {
				continue
			}
			mu.Lock()
			if p != nil && i < panicAt {
				panicAt, panicVal = i, p
			}
			if e != nil && i < errAt {
				errAt, err = i, e
			}
			mu.Unlock()
		}
	}
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer wg.Done()
			work(w)
		}()
	}
	work(0)
	wg.Wait()
	if panicAt < n {
		panic(panicVal)
	}
	return err
}

// call runs fn(w, i) and returns its panic instead of raising it. A
// recover stops a panic only when the deferred call itself makes it, so
// each call gets its own frame, and the panicking frames are still on the
// stack while it runs. Since Go 1.21 a panic(nil) recovers as a
// *runtime.PanicNilError, so a nil p means fn returned.
func call(fn func(w, i int) error, w, i int) (p *Panic, err error) {
	defer func() {
		if v := recover(); v != nil {
			if p, _ = v.(*Panic); p == nil {
				p = &Panic{Value: v, Stack: debug.Stack()}
			}
		}
	}()
	return nil, fn(w, i)
}
