package plancache

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

func sig(levels ...[2]int) TopoSig {
	var s TopoSig
	for _, l := range levels {
		s.Levels = append(s.Levels, TopoLevel{Nodes: l[0], CacheChunks: l[1]})
	}
	return s
}

func keyOf(t *testing.T, spec any) Key {
	t.Helper()
	k, err := KeyOf(spec)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func TestTopoSigDrift(t *testing.T) {
	base := sig([2]int{2, 16}, [2]int{4, 8}, [2]int{8, 4})
	cases := []struct {
		name string
		b    TopoSig
		tol  float64
		want bool
	}{
		{"identical tol 0", base, 0, true},
		{"identical tol 0.2", base, 0.2, true},
		{"one more client within 25%", sig([2]int{2, 16}, [2]int{4, 8}, [2]int{10, 4}), 0.25, true},
		{"one more client outside 10%", sig([2]int{2, 16}, [2]int{4, 8}, [2]int{10, 4}), 0.1, false},
		{"cache capacity drift within", sig([2]int{2, 16}, [2]int{4, 8}, [2]int{8, 5}), 0.25, true},
		{"cache capacity drift outside", sig([2]int{2, 16}, [2]int{4, 8}, [2]int{8, 6}), 0.25, false},
		{"level count mismatch", sig([2]int{2, 16}, [2]int{4, 8}), 0.5, false},
		{"exact mismatch tol 0", sig([2]int{2, 16}, [2]int{4, 8}, [2]int{9, 4}), 0, false},
	}
	for _, tc := range cases {
		if got := base.DriftWithin(tc.b, tc.tol); got != tc.want {
			t.Errorf("%s: DriftWithin = %v, want %v", tc.name, got, tc.want)
		}
	}
	// Drift is symmetric: |x−y| is measured against max(x,y).
	grown := sig([2]int{2, 16}, [2]int{4, 8}, [2]int{10, 4})
	if base.DriftWithin(grown, 0.2) != grown.DriftWithin(base, 0.2) {
		t.Error("DriftWithin is asymmetric")
	}
}

func TestStaleTierGetPut(t *testing.T) {
	st := NewStaleTier[string](4)
	k := keyOf(t, "workload-a")
	sigA := sig([2]int{2, 16}, [2]int{4, 8})
	sigDrift := sig([2]int{2, 16}, [2]int{5, 8})
	sigFar := sig([2]int{2, 16}, [2]int{16, 8})

	if _, _, _, ok := st.Get(k, sigA, 0.25); ok {
		t.Fatal("empty tier returned a value")
	}
	st.Put(k, sigA, "plan-1")
	if v, _, age, ok := st.Get(k, sigA, 0); !ok || v != "plan-1" || age < 0 {
		t.Fatalf("exact lookup: %q %v %v", v, age, ok)
	}
	if v, _, _, ok := st.Get(k, sigDrift, 0.25); !ok || v != "plan-1" {
		t.Fatalf("drift-within lookup failed: %q %v", v, ok)
	}
	if _, _, _, ok := st.Get(k, sigFar, 0.25); ok {
		t.Fatal("far topology served a stale plan")
	}
	if _, _, _, ok := st.Get(keyOf(t, "workload-b"), sigA, 1); ok {
		t.Fatal("unknown workload served a stale plan")
	}

	// Put for the same workload replaces the entry.
	st.Put(k, sigFar, "plan-2")
	if v, _, _, ok := st.Get(k, sigFar, 0); !ok || v != "plan-2" {
		t.Fatalf("refresh lookup: %q %v", v, ok)
	}
	if st.Len() != 1 {
		t.Fatalf("Len = %d after refresh", st.Len())
	}
}

func TestStaleTierBounded(t *testing.T) {
	st := NewStaleTier[int](3)
	s := sig([2]int{1, 1})
	keys := make([]Key, 5)
	for i := range keys {
		keys[i] = keyOf(t, fmt.Sprintf("w%d", i))
		st.Put(keys[i], s, i)
	}
	if st.Len() != 3 {
		t.Fatalf("Len = %d, want 3", st.Len())
	}
	// The two oldest workloads were evicted.
	for i := 0; i < 2; i++ {
		if _, _, _, ok := st.Get(keys[i], s, 0); ok {
			t.Errorf("evicted key %d still present", i)
		}
	}
	// A Get refreshes recency: touch key 2, insert two more, key 2 stays.
	if _, _, _, ok := st.Get(keys[2], s, 0); !ok {
		t.Fatal("key 2 missing")
	}
	st.Put(keyOf(t, "w5"), s, 5)
	st.Put(keyOf(t, "w6"), s, 6)
	if _, _, _, ok := st.Get(keys[2], s, 0); !ok {
		t.Error("recently used key 2 was evicted")
	}
	if _, _, _, ok := st.Get(keys[3], s, 0); ok {
		t.Error("least recently used key 3 survived")
	}
}

func TestStaleTierConcurrent(t *testing.T) {
	st := NewStaleTier[int](16)
	s := sig([2]int{4, 4})
	keys := make([]Key, 24)
	for i := range keys {
		keys[i] = keyOf(t, fmt.Sprintf("w%d", i))
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := keys[(g+i)%24]
				if i%2 == 0 {
					st.Put(k, s, i)
				} else {
					st.Get(k, s, 0.25)
				}
			}
		}(g)
	}
	wg.Wait()
	if st.Len() > 16 {
		t.Fatalf("Len = %d exceeds capacity", st.Len())
	}
}

// TestStaleTierRepair pins what the repair path needs from Get: the exact
// signature the entry was computed for, not the probe, so a caller can
// tell zero drift from a genuine adaptation.
func TestStaleTierRepair(t *testing.T) {
	st := NewStaleTier[string](4)
	k := keyOf(t, "workload-a")
	sigA := sig([2]int{2, 16}, [2]int{4, 8})
	sigDrift := sig([2]int{2, 16}, [2]int{5, 8})
	sigFar := sig([2]int{2, 16}, [2]int{16, 8})

	if _, _, _, ok := st.Get(k, sigA, 0.25); ok {
		t.Fatal("empty tier repaired")
	}
	st.Put(k, sigA, "clustering-1")

	v, cached, age, ok := st.Get(k, sigA, 0.25)
	if !ok || v != "clustering-1" || age < 0 {
		t.Fatalf("exact repair lookup: %q %v %v", v, age, ok)
	}
	if !cached.DriftWithin(sigA, 0) {
		t.Fatalf("recorded signature %v, want %v", cached, sigA)
	}
	// Drift within tolerance: still usable, and the recorded signature is
	// the ORIGINAL one, not the probe.
	v, cached, _, ok = st.Get(k, sigDrift, 0.25)
	if !ok || v != "clustering-1" {
		t.Fatalf("drift-within repair failed: %q %v", v, ok)
	}
	if cached.DriftWithin(sigDrift, 0) {
		t.Fatal("Get returned the probe signature instead of the recorded one")
	}
	if _, _, _, ok := st.Get(k, sigFar, 0.25); ok {
		t.Fatal("far topology repaired")
	}
}

// TestStaleTierConformance holds the stale-tier contract cases that
// TestStaleTierGetPut and TestStaleTierBounded do not already pin.
func TestStaleTierConformance(t *testing.T) {
	t.Run("StaleTier/DriftTolerance", func(t *testing.T) {
		st := NewStaleTier[string](4)
		k := keyOf(t, "workload-a")
		st.Put(k, sig([2]int{8, 32}, [2]int{16, 64}), "plan-1")
		if _, _, _, ok := st.Get(k, sig([2]int{8, 32}), 1); ok {
			t.Fatal("different-depth Get reported a usable plan")
		}
	})

	t.Run("StaleTier/Replace", func(t *testing.T) {
		st := NewStaleTier[string](4)
		k := keyOf(t, "workload-a")
		st.Put(k, sig([2]int{8, 32}), "old")
		st.Put(k, sig([2]int{32, 128}), "new")
		if _, _, _, ok := st.Get(k, sig([2]int{8, 32}), 0); ok {
			t.Fatal("replaced entry still serves its old signature exactly")
		}
	})

	t.Run("StaleTier/CapacityAndAge", func(t *testing.T) {
		const limit = 3
		st := NewStaleTier[string](limit)
		s := sig([2]int{8, 32})
		before := time.Now()
		for i := 0; i < 2*limit; i++ {
			st.Put(keyOf(t, fmt.Sprintf("w%d", i)), s, fmt.Sprintf("p%d", i))
		}
		v, _, age, ok := st.Get(keyOf(t, fmt.Sprintf("w%d", 2*limit-1)), s, 0)
		if !ok || v != fmt.Sprintf("p%d", 2*limit-1) {
			t.Fatalf("most recent entry: Get = %q, %v", v, ok)
		}
		if age < 0 || age > time.Since(before)+time.Second {
			t.Fatalf("implausible stale age %v", age)
		}
	})
}
