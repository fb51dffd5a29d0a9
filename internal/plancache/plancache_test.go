package plancache

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
)

func key(t *testing.T, v any) Key {
	t.Helper()
	k, err := KeyOf(v)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func TestKeyOfCanonical(t *testing.T) {
	type spec struct {
		App      string
		Topology string
		Alpha    float64
	}
	a := key(t, spec{"apsi", "1/2/4", 0.5})
	b := key(t, spec{"apsi", "1/2/4", 0.5})
	c := key(t, spec{"apsi", "1/2/4", 0.6})
	if a != b {
		t.Fatal("equal specs hash unequally")
	}
	if a == c {
		t.Fatal("different specs collide")
	}
	if len(a.String()) != 64 {
		t.Fatalf("hex key length = %d", len(a.String()))
	}
}

// value returns a Do computation that yields v.
func value[V any](v V) func(context.Context) (V, error) {
	return func(context.Context) (V, error) { return v, nil }
}

func TestGetPutLRU(t *testing.T) {
	c := New[int](2, nil)
	var hits, misses int
	c.OnHit = func() { hits++ }
	c.OnMiss = func() { misses++ }
	ctx := context.Background()
	k1, k2, k3 := key(t, 1), key(t, 2), key(t, 3)
	c.Do(ctx, k1, value(10))
	c.Do(ctx, k2, value(20))
	if v, hit, _ := c.Do(ctx, k1, value(-1)); !hit || v != 10 {
		t.Fatalf("Do(k1) = %d, hit %v", v, hit)
	}
	c.Do(ctx, k3, value(30)) // evicts k2, the least recently used
	if _, ok := c.mem.peek(k2); ok {
		t.Fatal("k2 survived eviction")
	}
	if v, ok := c.mem.peek(k1); !ok || v != 10 {
		t.Fatalf("k1 lost: %d, %v", v, ok)
	}
	if v, ok := c.mem.peek(k3); !ok || v != 30 {
		t.Fatalf("k3 lost: %d, %v", v, ok)
	}
	if n := len(c.mem.entries); n != 2 {
		t.Fatalf("memory holds %d entries, want 2", n)
	}
	if hits != 1 || misses != 3 {
		t.Fatalf("hooks saw %d hits, %d misses; want 1, 3", hits, misses)
	}
}

func TestOnEvict(t *testing.T) {
	c := New[string](1, nil)
	evictions := 0
	c.OnEvict = func() { evictions++ }
	ctx := context.Background()
	c.Do(ctx, key(t, "a"), value("A"))
	c.Do(ctx, key(t, "b"), value("B"))
	c.Do(ctx, key(t, "c"), value("C"))
	if evictions != 2 {
		t.Fatalf("evictions = %d, want 2", evictions)
	}
	if _, ok := c.mem.peek(key(t, "c")); !ok || len(c.mem.entries) != 1 {
		t.Fatalf("memory holds %d entries, want only the newest", len(c.mem.entries))
	}
}

func TestDoComputesOnceUnderContention(t *testing.T) {
	c := New[int](8, nil)
	k := key(t, "hot")
	var computed atomic.Int64
	var wg sync.WaitGroup
	start := make(chan struct{})
	results := make([]int, 64)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			v, _, err := c.Do(context.Background(), k, func(context.Context) (int, error) {
				computed.Add(1)
				return 42, nil
			})
			if err != nil {
				t.Error(err)
			}
			results[i] = v
		}(i)
	}
	close(start)
	wg.Wait()
	if n := computed.Load(); n != 1 {
		t.Fatalf("computed %d times, want 1", n)
	}
	for i, v := range results {
		if v != 42 {
			t.Fatalf("results[%d] = %d", i, v)
		}
	}
}

func TestDoErrorNotCached(t *testing.T) {
	c := New[int](4, nil)
	k := key(t, "flaky")
	boom := errors.New("boom")
	if _, _, err := c.Do(context.Background(), k, func(context.Context) (int, error) { return 0, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	v, hit, err := c.Do(context.Background(), k, func(context.Context) (int, error) { return 7, nil })
	if err != nil || hit || v != 7 {
		t.Fatalf("after error: v=%d hit=%v err=%v", v, hit, err)
	}
	if v, hit, _ := c.Do(context.Background(), k, func(context.Context) (int, error) { return 0, errors.New("unused") }); !hit || v != 7 {
		t.Fatalf("success not cached: v=%d hit=%v", v, hit)
	}
}

func TestConcurrentMixedKeys(t *testing.T) {
	c := New[int](16, nil)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k, err := KeyOf(fmt.Sprintf("k%d", i%32))
				if err != nil {
					t.Error(err)
					return
				}
				v, _, err := c.Do(context.Background(), k, func(context.Context) (int, error) { return i % 32, nil })
				if err != nil {
					t.Error(err)
					return
				}
				if v != i%32 {
					t.Errorf("v = %d, want %d", v, i%32)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestDoCanceledLeaderDoesNotPoison exercises the singleflight cancellation
// contract: a canceled leader must not cache its partial result or
// propagate its error; waiting followers re-elect a successor leader.
// Meaningful under -race.
func TestDoCanceledLeaderDoesNotPoison(t *testing.T) {
	c := New[int](4, nil)
	k := key(t, "contested")

	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	leaderStarted := make(chan struct{})
	leaderRelease := make(chan struct{})
	leaderDone := make(chan error, 1)
	go func() {
		_, _, err := c.Do(leaderCtx, k, func(ctx context.Context) (int, error) {
			close(leaderStarted)
			<-leaderRelease
			return 0, ctx.Err() // simulate a computation aborted by cancellation
		})
		leaderDone <- err
	}()
	<-leaderStarted

	// Followers join while the leader is in flight.
	const followers = 8
	var succeeded atomic.Int64
	var recomputed atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < followers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, _, err := c.Do(context.Background(), k, func(context.Context) (int, error) {
				recomputed.Add(1)
				return 99, nil
			})
			if err != nil {
				t.Errorf("follower err = %v", err)
				return
			}
			if v != 99 {
				t.Errorf("follower v = %d, want 99", v)
				return
			}
			succeeded.Add(1)
		}()
	}
	// Give followers a moment to block on the leader, then cancel it.
	cancelLeader()
	close(leaderRelease)

	if err := <-leaderDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("leader err = %v, want context.Canceled", err)
	}
	wg.Wait()
	if succeeded.Load() != followers {
		t.Fatalf("%d/%d followers succeeded", succeeded.Load(), followers)
	}
	if n := recomputed.Load(); n < 1 {
		t.Fatalf("no successor leader recomputed the value")
	}
	// The abandoned leader result must not be cached; the successor's is.
	if v, ok := c.mem.peek(k); !ok || v != 99 {
		t.Fatalf("cached = %d, %v; want 99, true", v, ok)
	}
}

// TestDoFollowerCancellation: a follower whose own context dies while the
// leader computes gets its ctx.Err() and leaves the leader undisturbed.
func TestDoFollowerCancellation(t *testing.T) {
	c := New[int](4, nil)
	k := key(t, "slow")
	started := make(chan struct{})
	release := make(chan struct{})
	done := make(chan int, 1)
	go func() {
		v, _, _ := c.Do(context.Background(), k, func(context.Context) (int, error) {
			close(started)
			<-release
			return 7, nil
		})
		done <- v
	}()
	<-started

	followerCtx, cancelFollower := context.WithCancel(context.Background())
	cancelFollower()
	if _, _, err := c.Do(followerCtx, k, func(context.Context) (int, error) {
		t.Error("canceled follower must not compute")
		return 0, nil
	}); !errors.Is(err, context.Canceled) {
		t.Fatalf("follower err = %v, want context.Canceled", err)
	}

	close(release)
	if v := <-done; v != 7 {
		t.Fatalf("leader v = %d, want 7", v)
	}
	if v, ok := c.mem.peek(k); !ok || v != 7 {
		t.Fatalf("cached = %d, %v", v, ok)
	}
}

// TestCountersMoveUnderConcurrentLoad drives the cache through coalesced
// waits, capacity evictions and a leader re-election, and requires the
// corresponding hooks (the cache's only counters) to fire.
func TestCountersMoveUnderConcurrentLoad(t *testing.T) {
	c := New[int](2, nil)
	var hookCoalesced, hookReelect, hookEvict, hookHit, hookMiss atomic.Int64
	c.OnCoalesced = func() { hookCoalesced.Add(1) }
	c.OnReelect = func() { hookReelect.Add(1) }
	c.OnEvict = func() { hookEvict.Add(1) }
	c.OnHit = func() { hookHit.Add(1) }
	c.OnMiss = func() { hookMiss.Add(1) }

	// Phase 1: 7 followers coalesce onto one in-flight leader. The
	// OnCoalesced hook doubles as the synchronization point: the leader is
	// released only after every follower has attached.
	k := key(t, "coalesce")
	release := make(chan struct{})
	started := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c.Do(context.Background(), k, func(context.Context) (int, error) {
			close(started)
			<-release
			return 1, nil
		})
	}()
	<-started
	const followers = 7
	for i := 0; i < followers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if v, _, err := c.Do(context.Background(), k, func(context.Context) (int, error) {
				return -1, nil
			}); err != nil || v != 1 {
				t.Errorf("follower got %d, %v", v, err)
			}
		}()
	}
	for hookCoalesced.Load() < followers {
		runtime.Gosched()
	}
	close(release)
	wg.Wait()

	// Phase 2: concurrent cold misses over more keys than capacity evict.
	var wg2 sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg2.Add(1)
		go func(i int) {
			defer wg2.Done()
			ki := key(t, fmt.Sprintf("evict-%d", i))
			c.Do(context.Background(), ki, func(context.Context) (int, error) { return i, nil })
		}(i)
	}
	wg2.Wait()

	// Phase 3: a canceled leader forces its waiter to re-elect.
	k3 := key(t, "reelect")
	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	started3 := make(chan struct{})
	release3 := make(chan struct{})
	var wg3 sync.WaitGroup
	wg3.Add(1)
	go func() {
		defer wg3.Done()
		c.Do(leaderCtx, k3, func(ctx context.Context) (int, error) {
			close(started3)
			<-release3
			return 0, ctx.Err()
		})
	}()
	<-started3
	before := hookCoalesced.Load()
	wg3.Add(1)
	go func() {
		defer wg3.Done()
		if v, _, err := c.Do(context.Background(), k3, func(context.Context) (int, error) {
			return 42, nil
		}); err != nil || v != 42 {
			t.Errorf("re-electing waiter got %d, %v", v, err)
		}
	}()
	for hookCoalesced.Load() == before {
		runtime.Gosched()
	}
	cancelLeader()
	close(release3)
	wg3.Wait()

	if n := hookCoalesced.Load(); n < followers+1 {
		t.Errorf("coalesced waiters = %d, want >= %d", n, followers+1)
	}
	if n := hookEvict.Load(); n < 6 {
		t.Errorf("evictions = %d, want >= 6 (8 cold keys + 2 earlier in a 2-entry cache)", n)
	}
	if n := hookReelect.Load(); n < 1 {
		t.Errorf("leader re-elections = %d, want >= 1", n)
	}
	if hookHit.Load()+hookMiss.Load() == 0 {
		t.Error("no hits or misses recorded")
	}
}

// TestDoEmitsSpans: under a traced context, a cache hit records a lookup
// span, a leader records a compute span, and a coalesced follower records
// a singleflight-wait span.
func TestDoEmitsSpans(t *testing.T) {
	c := New[int](4, nil)
	k := key(t, "spans")

	spansOf := func(drive func(ctx context.Context)) map[string][]obs.SpanData {
		ctx, root := obs.StartRoot(context.Background(), "test", obs.TraceContext{})
		drive(ctx)
		tr := root.End()
		out := map[string][]obs.SpanData{}
		for _, sp := range tr.Spans {
			out[sp.Name] = append(out[sp.Name], sp)
		}
		return out
	}

	// Cold: leader computes.
	got := spansOf(func(ctx context.Context) {
		c.Do(ctx, k, func(context.Context) (int, error) { return 1, nil })
	})
	if len(got["plancache.compute"]) != 1 {
		t.Fatalf("cold Do spans: %+v", got)
	}

	// Warm: lookup hit.
	got = spansOf(func(ctx context.Context) {
		c.Do(ctx, k, func(context.Context) (int, error) { return -1, nil })
	})
	if len(got["plancache.lookup"]) != 1 || len(got["plancache.compute"]) != 0 {
		t.Fatalf("warm Do spans: %+v", got)
	}

	// Coalesced follower: singleflight-wait span instead of compute.
	k2 := key(t, "spans-wait")
	started := make(chan struct{})
	releaseLeader := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c.Do(context.Background(), k2, func(context.Context) (int, error) {
			close(started)
			<-releaseLeader
			return 2, nil
		})
	}()
	<-started
	attached := make(chan struct{})
	c.OnCoalesced = func() { close(attached) }
	go func() {
		<-attached
		close(releaseLeader)
	}()
	got = spansOf(func(ctx context.Context) {
		if v, hit, err := c.Do(ctx, k2, func(context.Context) (int, error) { return -1, nil }); v != 2 || !hit || err != nil {
			t.Errorf("follower got %d, %v, %v", v, hit, err)
		}
	})
	wg.Wait()
	waits := got["plancache.wait"]
	if len(waits) != 1 || len(got["plancache.compute"]) != 0 {
		t.Fatalf("follower Do spans: %+v", got)
	}
	if waits[0].Attrs[0] != (obs.Attr{Key: "outcome", Value: "shared"}) {
		t.Fatalf("wait span attrs: %+v", waits[0].Attrs)
	}
}

// mapDisk is a map-backed Disk. The cache calls it under its own lock, so
// it needs none; the test reads it only between Do calls.
type mapDisk struct {
	m          map[Key]string
	gets, puts int
}

func (d *mapDisk) Get(k Key) (string, bool) { d.gets++; v, ok := d.m[k]; return v, ok }
func (d *mapDisk) Put(k Key, v string)      { d.puts++; d.m[k] = v }

// TestDiskTier: computed values reach the disk tier, a memory miss the
// disk answers is a hit that is promoted into memory without a disk
// write, and every memory eviction, the promotion's included, fires
// OnEvict.
func TestDiskTier(t *testing.T) {
	d := &mapDisk{m: map[Key]string{}}
	c := New[string](1, d)
	var hits, misses, evictions int
	c.OnHit = func() { hits++ }
	c.OnMiss = func() { misses++ }
	c.OnEvict = func() { evictions++ }
	ctx := context.Background()
	ka, kb := key(t, "a"), key(t, "b")

	c.Do(ctx, ka, value("A"))
	c.Do(ctx, kb, value("B")) // displaces a from the 1-entry memory tier
	if d.m[ka] != "A" || d.m[kb] != "B" || d.puts != 2 {
		t.Fatalf("disk holds %v after %d puts; want both computed values", d.m, d.puts)
	}
	if evictions != 1 {
		t.Fatalf("evictions = %d after 2 values in a 1-entry tier, want 1", evictions)
	}

	v, hit, err := c.Do(ctx, ka, func(context.Context) (string, error) {
		return "", errors.New("a disk-resident value was recomputed")
	})
	if v != "A" || !hit || err != nil {
		t.Fatalf("memory miss on a = %q, %v, %v; want the disk copy as a hit", v, hit, err)
	}
	if evictions != 2 {
		t.Fatalf("evictions = %d, want 2: promoting a displaces b", evictions)
	}
	if d.puts != 2 {
		t.Fatalf("promotion wrote to disk: %d puts, want 2", d.puts)
	}
	gets := d.gets
	if v, hit, _ := c.Do(ctx, ka, value("unused")); v != "A" || !hit || d.gets != gets {
		t.Fatalf("after promotion Do(a) = %q, %v with %d disk reads; want a memory hit", v, hit, d.gets-gets)
	}
	if hits != 2 || misses != 2 {
		t.Fatalf("hooks saw %d hits, %d misses; want 2, 2", hits, misses)
	}
}

// TestDoAfterLeaderPanic: a leader whose fn panics must not wedge its key.
// The panic still reaches the leader's caller, nothing is cached, and the
// next Do computes well before its deadline.
func TestDoAfterLeaderPanic(t *testing.T) {
	c := New[int](4, nil)
	k := key(t, "panics")
	func() {
		defer func() {
			if r := recover(); r != "boom" {
				t.Errorf("leader recovered %v, want the original panic", r)
			}
		}()
		c.Do(context.Background(), k, func(context.Context) (int, error) { panic("boom") })
	}()
	if _, ok := c.mem.peek(k); ok {
		t.Fatal("a panicked computation was cached")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if v, hit, err := c.Do(ctx, k, value(7)); v != 7 || hit || err != nil {
		t.Fatalf("Do after a leader panic = %d, %v, %v; want a fresh compute of 7", v, hit, err)
	}
}

// TestDoFollowerOfPanickingLeader: a follower coalesced onto a leader that
// panics gets an error as soon as the leader unwinds, not at its deadline.
func TestDoFollowerOfPanickingLeader(t *testing.T) {
	c := New[int](4, nil)
	k := key(t, "panics-shared")
	attached := make(chan struct{})
	c.OnCoalesced = func() { close(attached) }
	started := make(chan struct{})
	recovered := make(chan any, 1)
	go func() {
		defer func() { recovered <- recover() }()
		c.Do(context.Background(), k, func(context.Context) (int, error) {
			close(started)
			<-attached
			panic("boom")
		})
	}()
	<-started

	const deadline = 5 * time.Second
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	start := time.Now()
	_, _, err := c.Do(ctx, k, func(context.Context) (int, error) {
		t.Error("a follower computed instead of waiting on its leader")
		return 0, nil
	})
	if !errors.Is(err, errLeaderPanicked) {
		t.Fatalf("follower err = %v after %v, want errLeaderPanicked", err, time.Since(start))
	}
	if r := <-recovered; r != "boom" {
		t.Fatalf("leader recovered %v, want the original panic", r)
	}
	if _, ok := c.mem.peek(k); ok {
		t.Fatal("a panicked computation was cached")
	}
}
