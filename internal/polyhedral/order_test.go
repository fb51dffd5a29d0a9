package polyhedral

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestIdentityOrderMatchesForEach(t *testing.T) {
	n := NewNest("t", []int64{0, 0}, []int64{3, 4})
	idx := Order{Perm: []int{0, 1}}.Indices(n)
	if int64(len(idx)) != n.Size() {
		t.Fatalf("len = %d, want %d", len(idx), n.Size())
	}
	for i, v := range idx {
		if v != int64(i) {
			t.Fatalf("identity order not lexicographic at %d: %d", i, v)
		}
	}
}

func TestPermutedOrder(t *testing.T) {
	n := NewNest("t", []int64{0, 0}, []int64{1, 2})
	o := Order{Perm: []int{1, 0}} // j outermost
	var got [][2]int64
	o.ForEach(n, func(it []int64) bool {
		got = append(got, [2]int64{it[0], it[1]})
		return true
	})
	want := [][2]int64{{0, 0}, {1, 0}, {0, 1}, {1, 1}, {0, 2}, {1, 2}}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestTiledOrder(t *testing.T) {
	n := NewNest("t", []int64{0, 0}, []int64{3, 3})
	o := Order{Perm: []int{0, 1}, Tiles: []int64{2, 2}}
	var got [][2]int64
	o.ForEach(n, func(it []int64) bool {
		got = append(got, [2]int64{it[0], it[1]})
		return true
	})
	if len(got) != 16 {
		t.Fatalf("visited %d iterations", len(got))
	}
	// First tile is the 2x2 block at origin.
	want4 := [][2]int64{{0, 0}, {0, 1}, {1, 0}, {1, 1}}
	for i := range want4 {
		if got[i] != want4[i] {
			t.Fatalf("first tile = %v", got[:4])
		}
	}
	// Next tile moves along the innermost (second) tiled dimension.
	if got[4] != [2]int64{0, 2} {
		t.Fatalf("second tile starts at %v", got[4])
	}
}

func TestTiledOrderRaggedEdge(t *testing.T) {
	// Dimension size 5 with tile 2 leaves a ragged final tile.
	n := NewNest("t", []int64{0}, []int64{4})
	o := Order{Perm: []int{0}, Tiles: []int64{2}}
	idx := o.Indices(n)
	if len(idx) != 5 {
		t.Fatalf("visited %d, want 5", len(idx))
	}
}

func TestOrderSkipsGuardedIterations(t *testing.T) {
	n := NewNest("tri", []int64{0, 0}, []int64{4, 4}).AddGuard([]int64{1, -1}, 0)
	o := Order{Perm: []int{1, 0}, Tiles: []int64{2, 2}}
	count := 0
	o.ForEach(n, func(it []int64) bool {
		if it[1] > it[0] {
			t.Fatalf("guarded iteration %v enumerated", it)
		}
		count++
		return true
	})
	if int64(count) != n.Size() {
		t.Fatalf("count = %d, want %d", count, n.Size())
	}
}

func TestOrderValidate(t *testing.T) {
	n := NewNest("t", []int64{0, 0}, []int64{1, 1})
	bad := []Order{
		{Perm: []int{0}},
		{Perm: []int{0, 0}},
		{Perm: []int{0, 2}},
		{Perm: []int{0, 1}, Tiles: []int64{2}},
		{Perm: []int{0, 1}, Tiles: []int64{-1, 2}},
	}
	for i, o := range bad {
		if err := o.Validate(n); err == nil {
			t.Errorf("case %d: invalid order accepted", i)
		}
	}
	if err := (Order{Perm: []int{1, 0}, Tiles: []int64{0, 3}}).Validate(n); err != nil {
		t.Errorf("valid order rejected: %v", err)
	}
}

func TestOrderEarlyStop(t *testing.T) {
	n := NewNest("t", []int64{0, 0}, []int64{9, 9})
	count := 0
	Order{Perm: []int{1, 0}, Tiles: []int64{3, 3}}.ForEach(n, func(it []int64) bool {
		count++
		return count < 7
	})
	if count != 7 {
		t.Fatalf("count = %d", count)
	}
}

// Property: any (permutation, tiling) order is a bijection on the executing
// iterations — same index multiset as the identity order.
func TestPropertyOrderIsPermutation(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		depth := 1 + r.Intn(3)
		lo, hi := make([]int64, depth), make([]int64, depth)
		for k := 0; k < depth; k++ {
			lo[k] = int64(r.Intn(3))
			hi[k] = lo[k] + int64(r.Intn(5))
		}
		n := NewNest("p", lo, hi)
		if depth > 1 && r.Intn(3) == 0 {
			co := make([]int64, depth)
			co[0], co[1] = 1, -1
			n.AddGuard(co, 0)
		}
		perm := r.Perm(depth)
		tiles := make([]int64, depth)
		for k := range tiles {
			tiles[k] = int64(r.Intn(4)) // 0 = untiled
		}
		o := Order{Perm: perm, Tiles: tiles}
		got := o.Indices(n)
		identity := Order{Perm: make([]int, depth)}
		for k := range identity.Perm {
			identity.Perm[k] = k
		}
		want := identity.Indices(n)
		if len(got) != len(want) {
			return false
		}
		sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
