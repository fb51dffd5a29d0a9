package join

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestEachRunsEveryIndexOnce runs Each at several worker counts, more and
// fewer than the indices: every index must run exactly once, w must name
// one of the min(workers, n) workers, and no more than workers calls may
// run at once.
func TestEachRunsEveryIndexOnce(t *testing.T) {
	for _, tc := range []struct{ workers, n int }{
		{1, 10}, {2, 2}, {3, 50}, {8, 5}, {4, 0}, {0, 3},
	} {
		t.Run(fmt.Sprintf("workers=%d/n=%d", tc.workers, tc.n), func(t *testing.T) {
			runs := make([]atomic.Int32, tc.n)
			var running, peak atomic.Int32
			err := Each(tc.workers, tc.n, func(w, i int) error {
				if want := max(min(tc.workers, tc.n), 1); w < 0 || w >= want {
					t.Errorf("index %d ran on worker %d, want one of %d", i, w, want)
				}
				now := running.Add(1)
				for {
					if p := peak.Load(); now <= p || peak.CompareAndSwap(p, now) {
						break
					}
				}
				time.Sleep(time.Millisecond)
				running.Add(-1)
				runs[i].Add(1)
				return nil
			})
			if err != nil {
				t.Fatalf("err = %v", err)
			}
			for i := range runs {
				if got := runs[i].Load(); got != 1 {
					t.Errorf("index %d ran %d times, want once", i, got)
				}
			}
			if p := int(peak.Load()); p > max(tc.workers, 1) {
				t.Errorf("%d calls ran at once, want at most %d", p, max(tc.workers, 1))
			}
		})
	}
}

// TestEachLowestIndexError fails three indices, the lowest one last: it
// returns only once the other two are returning. Each must return the
// lowest index's error, as the serial loop does, and still run every
// index.
func TestEachLowestIndexError(t *testing.T) {
	errs := map[int]error{3: errors.New("three"), 7: errors.New("seven"), 15: errors.New("fifteen")}
	higher := make(chan struct{}, 2) // indices 7 and 15 report as they return
	var ran atomic.Int32
	err := Each(4, 20, func(_, i int) error {
		ran.Add(1)
		switch i {
		case 3:
			for range 2 {
				select {
				case <-higher:
				case <-time.After(5 * time.Second):
					t.Error("indices 7 and 15 never ran while index 3 was held")
				}
			}
		case 7, 15:
			higher <- struct{}{}
		}
		return errs[i]
	})
	if err != errs[3] {
		t.Fatalf("err = %v, want the lowest failed index's %v", err, errs[3])
	}
	if ran.Load() != 20 {
		t.Fatalf("%d of 20 indices ran after the failures", ran.Load())
	}
}

// TestEachOneWorkerInline: with one worker, Each calls fn on the caller in
// ascending index order, keeps going after an error, and returns the
// first.
func TestEachOneWorkerInline(t *testing.T) {
	var order []int
	bad := errors.New("index 1")
	err := Each(1, 5, func(w, i int) error {
		if w != 0 {
			t.Errorf("index %d ran on worker %d", i, w)
		}
		order = append(order, i)
		if i == 1 || i == 3 {
			return fmt.Errorf("index %d: %w", i, bad)
		}
		return nil
	})
	if !errors.Is(err, bad) || err.Error() != "index 1: index 1" {
		t.Fatalf("err = %v, want index 1's", err)
	}
	if want := []int{0, 1, 2, 3, 4}; !slices.Equal(order, want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
}

// TestEachNothingToDo: n = 0 calls nothing and succeeds.
func TestEachNothingToDo(t *testing.T) {
	for _, workers := range []int{0, 1, 4} {
		if err := Each(workers, 0, func(_, i int) error {
			t.Errorf("workers %d: fn called for index %d of none", workers, i)
			return nil
		}); err != nil {
			t.Fatalf("workers %d: err = %v", workers, err)
		}
	}
}

// TestEachPanicAfterJoin panics in both calls of a two-worker Each. The
// caller's call waits until the other worker's call has started, then
// panics; the other's holds until the test has recovered or a while has
// passed, then panics too. The panic must reach the caller's recover, be
// the lower index's, and come only after the held call has returned.
func TestEachPanicAfterJoin(t *testing.T) {
	started := make(chan struct{})
	recovered := make(chan struct{}) // closed by the test once it has recovered
	left := make(chan struct{})      // closed when the held call is done
	var early atomic.Bool
	var got any
	func() {
		defer func() { got = recover() }()
		err := Each(2, 2, func(w, i int) error {
			if w == 0 {
				select {
				case <-started:
				case <-time.After(5 * time.Second):
					t.Error("the second worker never started a call")
				}
			} else {
				defer close(left)
				close(started)
				select {
				case <-recovered:
					early.Store(true)
				case <-time.After(250 * time.Millisecond):
				}
			}
			panic(fmt.Sprint("boom ", i))
		})
		t.Errorf("Each returned (err %v) instead of panicking", err)
	}()
	close(recovered)
	<-left
	checkPanic(t, got, "boom 0", "TestEachPanicAfterJoin.func")
	if early.Load() {
		t.Fatal("the panic was re-raised while a worker was still running")
	}
}

// TestEachPanicOverError: a panic wins over an error at a lower index, and
// every index still runs.
func TestEachPanicOverError(t *testing.T) {
	var ran atomic.Int32
	var got any
	func() {
		defer func() { got = recover() }()
		Each(3, 12, func(_, i int) error {
			ran.Add(1)
			switch i {
			case 2:
				return errors.New("two")
			case 5:
				panic("five")
			}
			return nil
		})
	}()
	checkPanic(t, got, "five", "TestEachPanicOverError.func")
	if ran.Load() != 12 {
		t.Fatalf("%d of 12 indices ran after the panic", ran.Load())
	}
}

// TestEachNestedPanic: a panic re-raised by an Each that runs inside
// another Each's worker reaches the outer caller as the inner *Panic, its
// value wrapped once and its stack still the panicking call's.
func TestEachNestedPanic(t *testing.T) {
	var got any
	func() {
		defer func() { got = recover() }()
		Each(2, 2, func(_, i int) error {
			if i == 1 {
				Each(2, 2, func(_, k int) error { return innerBoom(k) })
			}
			return nil
		})
	}()
	checkPanic(t, got, "inner", "join.innerBoom(")
}

func innerBoom(k int) error {
	if k == 1 {
		panic("inner")
	}
	return nil
}

// checkPanic requires a recovered value to be a *Panic of value want whose
// stack names the panicking function fn.
func checkPanic(t *testing.T, got, want any, fn string) {
	t.Helper()
	p, ok := got.(*Panic)
	if !ok || p.Value != want {
		t.Fatalf("recovered %#v, want a *Panic of %v", got, want)
	}
	if !strings.Contains(string(p.Stack), fn) {
		t.Fatalf("the panic's stack does not name %s:\n%s", fn, p.Stack)
	}
}
