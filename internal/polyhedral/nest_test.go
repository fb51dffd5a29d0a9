package polyhedral

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewNestValidation(t *testing.T) {
	for name, fn := range map[string]func(){
		"mismatch": func() { NewNest("x", []int64{0}, []int64{1, 2}) },
		"empty":    func() { NewNest("x", nil, nil) },
		"inverted": func() { NewNest("x", []int64{5}, []int64{4}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestBoxSizeAndDimSize(t *testing.T) {
	n := NewNest("t", []int64{2, 1, 1}, []int64{4, 3, 5})
	if n.Depth() != 3 {
		t.Fatalf("Depth = %d", n.Depth())
	}
	if n.DimSize(0) != 3 || n.DimSize(1) != 3 || n.DimSize(2) != 5 {
		t.Fatal("DimSize wrong")
	}
	if n.BoxSize() != 45 {
		t.Fatalf("BoxSize = %d, want 45", n.BoxSize())
	}
	if n.Size() != 45 {
		t.Fatalf("Size = %d, want 45", n.Size())
	}
}

func TestIndexIterRoundTrip(t *testing.T) {
	n := NewNest("t", []int64{2, 1}, []int64{4, 3})
	// Lexicographic order: (2,1)(2,2)(2,3)(3,1)...
	it := n.IndexToIter(0, nil)
	if it[0] != 2 || it[1] != 1 {
		t.Fatalf("index 0 -> %v", it)
	}
	it = n.IndexToIter(3, nil)
	if it[0] != 3 || it[1] != 1 {
		t.Fatalf("index 3 -> %v", it)
	}
	for idx := int64(0); idx < n.BoxSize(); idx++ {
		if got := n.IterToIndex(n.IndexToIter(idx, nil)); got != idx {
			t.Fatalf("round trip %d -> %d", idx, got)
		}
	}
}

func TestForEachLexicographic(t *testing.T) {
	n := NewNest("t", []int64{0, 0}, []int64{1, 2})
	var visited [][2]int64
	n.ForEach(func(it []int64) bool {
		visited = append(visited, [2]int64{it[0], it[1]})
		return true
	})
	want := [][2]int64{{0, 0}, {0, 1}, {0, 2}, {1, 0}, {1, 1}, {1, 2}}
	if len(visited) != len(want) {
		t.Fatalf("visited %v", visited)
	}
	for i := range want {
		if visited[i] != want[i] {
			t.Fatalf("visited %v, want %v", visited, want)
		}
	}
}

func TestForEachEarlyStop(t *testing.T) {
	n := NewNest("t", []int64{0}, []int64{99})
	count := 0
	n.ForEach(func(it []int64) bool {
		count++
		return count < 5
	})
	if count != 5 {
		t.Fatalf("count = %d, want 5", count)
	}
}

func TestGuardsTriangular(t *testing.T) {
	// 0 <= i,j <= 9 with j <= i  (i - j >= 0): a triangular space.
	n := NewNest("tri", []int64{0, 0}, []int64{9, 9}).AddGuard([]int64{1, -1}, 0)
	if n.Size() != 55 {
		t.Fatalf("triangular Size = %d, want 55", n.Size())
	}
	n.ForEach(func(it []int64) bool {
		if it[1] > it[0] {
			t.Fatalf("guarded-out iteration %v enumerated", it)
		}
		return true
	})
}

func TestGuardArityPanics(t *testing.T) {
	n := NewNest("t", []int64{0}, []int64{1})
	defer func() {
		if recover() == nil {
			t.Fatal("bad guard arity did not panic")
		}
	}()
	n.AddGuard([]int64{1, 1}, 0)
}

// Property: IterToIndex is the inverse of IndexToIter across random nests.
func TestPropertyIndexRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		depth := 1 + r.Intn(4)
		lo, hi := make([]int64, depth), make([]int64, depth)
		for k := 0; k < depth; k++ {
			lo[k] = int64(r.Intn(10) - 5)
			hi[k] = lo[k] + int64(r.Intn(6))
		}
		n := NewNest("p", lo, hi)
		for trial := 0; trial < 20; trial++ {
			idx := r.Int63n(n.BoxSize())
			if n.IterToIndex(n.IndexToIter(idx, nil)) != idx {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: ForEach visits exactly Size() iterations, each inside the
// bounds and the guard, in strictly increasing index order.
func TestPropertyForEachMatchesSize(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		depth := 1 + r.Intn(3)
		lo, hi := make([]int64, depth), make([]int64, depth)
		for k := 0; k < depth; k++ {
			lo[k] = int64(r.Intn(4))
			hi[k] = lo[k] + int64(r.Intn(5))
		}
		n := NewNest("p", lo, hi)
		guarded := depth > 1 && r.Intn(2) == 0
		if guarded {
			co := make([]int64, depth)
			co[0], co[1] = 1, -1
			n.AddGuard(co, 0)
		}
		var count int64
		last := int64(-1)
		ok := true
		n.ForEach(func(it []int64) bool {
			for k, v := range it {
				if v < lo[k] || v > hi[k] {
					ok = false
				}
			}
			if !ok || (guarded && it[0] < it[1]) {
				ok = false
				return false
			}
			idx := n.IterToIndex(it)
			if idx <= last {
				ok = false
				return false
			}
			last = idx
			count++
			return true
		})
		return ok && count == n.Size()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
