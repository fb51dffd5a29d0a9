// Package polyhedral implements the loop-nest intermediate representation
// the mapping scheme consumes: rectangular iteration spaces with optional
// affine guards, affine (and modular) array references, uniform data
// dependence analysis, and the loop transformations (permutation, tiling)
// used by the intra-processor locality baseline.
//
// It substitutes for the paper's Microsoft Phoenix IR plus the Omega
// Library: iteration sets G, array sets H and reference mappings L of
// Section 4.1 map directly onto Nest, chunking.Array and Ref.
package polyhedral

import (
	"fmt"
)

// Nest describes an n-deep loop nest. Loop k iterates over the inclusive
// range [Lower[k], Upper[k]] with unit stride, loop 0 outermost. Guards, if
// any, restrict the rectangular box to the polyhedron the paper's set G
// describes (e.g. triangular spaces); iterations failing a guard simply do
// not execute.
type Nest struct {
	Name   string
	Lower  []int64
	Upper  []int64
	Guards []Constraint
}

// Constraint is the affine inequality Σ Coeffs[k]·i_k + Const >= 0.
type Constraint struct {
	Coeffs []int64
	Const  int64
}

// Eval returns the left-hand-side value of the constraint at iteration it.
func (c Constraint) Eval(it []int64) int64 {
	v := c.Const
	for k, co := range c.Coeffs {
		v += co * it[k]
	}
	return v
}

// NewNest builds a rectangular nest. It panics if the bounds disagree in
// length or any dimension is empty.
func NewNest(name string, lower, upper []int64) *Nest {
	if len(lower) != len(upper) {
		panic(fmt.Sprintf("polyhedral: bound length mismatch %d vs %d", len(lower), len(upper)))
	}
	if len(lower) == 0 {
		panic("polyhedral: empty nest")
	}
	for k := range lower {
		if upper[k] < lower[k] {
			panic(fmt.Sprintf("polyhedral: empty dimension %d: [%d,%d]", k, lower[k], upper[k]))
		}
	}
	return &Nest{
		Name:  name,
		Lower: append([]int64(nil), lower...),
		Upper: append([]int64(nil), upper...),
	}
}

// AddGuard appends an affine guard Σ coeffs·i + c0 >= 0 and returns the nest
// for chaining.
func (n *Nest) AddGuard(coeffs []int64, c0 int64) *Nest {
	if len(coeffs) != n.Depth() {
		panic(fmt.Sprintf("polyhedral: guard arity %d vs depth %d", len(coeffs), n.Depth()))
	}
	n.Guards = append(n.Guards, Constraint{Coeffs: append([]int64(nil), coeffs...), Const: c0})
	return n
}

// Depth returns the number of loops in the nest.
func (n *Nest) Depth() int { return len(n.Lower) }

// DimSize returns the trip count of loop k.
func (n *Nest) DimSize(k int) int64 { return n.Upper[k] - n.Lower[k] + 1 }

// BoxSize returns the number of points in the rectangular bounding box
// (including points excluded by guards).
func (n *Nest) BoxSize() int64 {
	total := int64(1)
	for k := range n.Lower {
		total *= n.DimSize(k)
	}
	return total
}

// Size returns the number of iterations that actually execute (box points
// satisfying all guards). Without guards this is BoxSize and costs O(1).
func (n *Nest) Size() int64 {
	if len(n.Guards) == 0 {
		return n.BoxSize()
	}
	var count int64
	n.ForEach(func([]int64) bool { count++; return true })
	return count
}

// IndexToIter decodes a lexicographic box index into an iteration vector,
// writing into dst (which must have length Depth) and returning it. Index 0
// is (Lower[0], …, Lower[n−1]); the innermost loop varies fastest.
func (n *Nest) IndexToIter(idx int64, dst []int64) []int64 {
	if dst == nil {
		dst = make([]int64, n.Depth())
	}
	for k := n.Depth() - 1; k >= 0; k-- {
		size := n.DimSize(k)
		dst[k] = n.Lower[k] + idx%size
		idx /= size
	}
	return dst
}

// IterToIndex encodes an iteration vector as its lexicographic box index.
func (n *Nest) IterToIndex(it []int64) int64 {
	var idx int64
	for k := 0; k < n.Depth(); k++ {
		idx = idx*n.DimSize(k) + (it[k] - n.Lower[k])
	}
	return idx
}

// ForEach enumerates executing iterations in lexicographic order, stopping
// early if fn returns false. The slice passed to fn is reused; copy it if
// it must survive the call.
func (n *Nest) ForEach(fn func(it []int64) bool) {
	it := append([]int64(nil), n.Lower...)
	for {
		ok := true
		for _, g := range n.Guards {
			if g.Eval(it) < 0 {
				ok = false
				break
			}
		}
		if ok && !fn(it) {
			return
		}
		k := n.Depth() - 1
		for k >= 0 {
			it[k]++
			if it[k] <= n.Upper[k] {
				break
			}
			it[k] = n.Lower[k]
			k--
		}
		if k < 0 {
			return
		}
	}
}

// ForEachRange enumerates executing iterations whose lexicographic box
// index lies in [lo, hi), in lexicographic order, stopping early if fn
// returns false. fn additionally receives the box index, saving callers an
// IterToIndex recomputation. The slice passed to fn is reused; copy it if
// it must survive the call. Disjoint ranges covering [0, BoxSize()) visit
// exactly the iterations ForEach visits, making the enumeration shardable.
func (n *Nest) ForEachRange(lo, hi int64, fn func(idx int64, it []int64) bool) {
	if lo < 0 {
		lo = 0
	}
	if box := n.BoxSize(); hi > box {
		hi = box
	}
	if lo >= hi {
		return
	}
	it := n.IndexToIter(lo, nil)
	for idx := lo; idx < hi; idx++ {
		ok := true
		for _, g := range n.Guards {
			if g.Eval(it) < 0 {
				ok = false
				break
			}
		}
		if ok && !fn(idx, it) {
			return
		}
		for k := n.Depth() - 1; k >= 0; k-- {
			it[k]++
			if it[k] <= n.Upper[k] {
				break
			}
			it[k] = n.Lower[k]
		}
	}
}

// String summarizes the nest.
func (n *Nest) String() string {
	return fmt.Sprintf("nest %q depth=%d box=%d guards=%d", n.Name, n.Depth(), n.BoxSize(), len(n.Guards))
}
