package polyhedral

import "fmt"

// Order describes an execution order for a nest's iterations as a loop
// permutation combined with rectangular tiling. It is how the
// intra-processor baseline re-sequences iterations:
//
//   - Perm lists loop levels outermost-first; Perm = identity, Tiles = nil
//     reproduces the original lexicographic order.
//   - Tiles[k] > 1 tiles ORIGINAL loop k with that tile size; the order
//     walks tiles lexicographically (in permuted level order), and within a
//     tile walks points lexicographically (also in permuted level order).
//
// Guarded-out iterations are skipped during enumeration.
type Order struct {
	Perm  []int
	Tiles []int64
}

// Validate checks that the order is well-formed for the given nest.
func (o Order) Validate(n *Nest) error {
	if len(o.Perm) != n.Depth() {
		return fmt.Errorf("polyhedral: perm length %d vs depth %d", len(o.Perm), n.Depth())
	}
	seen := make([]bool, n.Depth())
	for _, p := range o.Perm {
		if p < 0 || p >= n.Depth() || seen[p] {
			return fmt.Errorf("polyhedral: invalid permutation %v", o.Perm)
		}
		seen[p] = true
	}
	if o.Tiles != nil && len(o.Tiles) != n.Depth() {
		return fmt.Errorf("polyhedral: tiles length %d vs depth %d", len(o.Tiles), n.Depth())
	}
	for _, t := range o.Tiles {
		if t < 0 {
			return fmt.Errorf("polyhedral: negative tile size %d", t)
		}
	}
	return nil
}

// tileSize returns the effective tile size of original loop k (0 or 1 mean
// "untiled", i.e. one point per tile step... treated as full dimension).
func (o Order) tileSize(n *Nest, k int) int64 {
	if o.Tiles == nil {
		return n.DimSize(k)
	}
	t := o.Tiles[k]
	if t <= 0 {
		return n.DimSize(k)
	}
	return t
}

// ForEach enumerates executing iterations of the nest in this order.
// The iteration slice passed to fn is reused across calls; fn returning
// false stops the walk.
func (o Order) ForEach(n *Nest, fn func(it []int64) bool) {
	if err := o.Validate(n); err != nil {
		panic(err)
	}
	depth := n.Depth()
	// Tile origin per ORIGINAL dimension, stepped in permuted level order.
	origin := append([]int64(nil), n.Lower...)
	it := make([]int64, depth)
	stop := false

	var walkPoint func(lvl int)
	walkPoint = func(lvl int) {
		if stop {
			return
		}
		if lvl == depth {
			for _, g := range n.Guards {
				if g.Eval(it) < 0 {
					return
				}
			}
			if !fn(it) {
				stop = true
			}
			return
		}
		k := o.Perm[lvl]
		hi := origin[k] + o.tileSize(n, k) - 1
		if hi > n.Upper[k] {
			hi = n.Upper[k]
		}
		for v := origin[k]; v <= hi && !stop; v++ {
			it[k] = v
			walkPoint(lvl + 1)
		}
	}

	var walkTile func(lvl int)
	walkTile = func(lvl int) {
		if stop {
			return
		}
		if lvl == depth {
			walkPoint(0)
			return
		}
		k := o.Perm[lvl]
		step := o.tileSize(n, k)
		for v := n.Lower[k]; v <= n.Upper[k] && !stop; v += step {
			origin[k] = v
			walkTile(lvl + 1)
		}
	}
	walkTile(0)
}

// Indices materializes the order as lexicographic box indices of the nest,
// in execution order. Only executing (guard-satisfying) iterations appear.
func (o Order) Indices(n *Nest) []int64 {
	out := make([]int64, 0, n.BoxSize())
	o.ForEach(n, func(it []int64) bool {
		out = append(out, n.IterToIndex(it))
		return true
	})
	return out
}
