// Package locality implements the state-of-the-art single-processor data
// locality optimizations the paper compares against (its "intra-processor"
// baseline, Section 5.1): loop permutation driven by a stride model, and
// iteration-space tiling with a footprint-based tile-size heuristic. These
// transformations optimize each client's own access stream and are, by
// construction, oblivious to the storage cache hierarchy — exactly the
// property the paper's evaluation isolates.
package locality

import (
	"math"

	"repro/internal/chunking"
	"repro/internal/polyhedral"
)

// strideOf estimates the array-element stride a reference experiences when
// loop dim varies by one (row-major layout).
func strideOf(ref polyhedral.Ref, arr chunking.Array, dim int) int64 {
	mult := int64(1)
	var stride int64
	for d := len(ref.Exprs) - 1; d >= 0; d-- {
		e := ref.Exprs[d]
		if dim < len(e.Coeffs) && e.Coeffs[dim] != 0 {
			stride += e.Coeffs[dim] * mult
		}
		mult *= arr.Dims[d]
	}
	if stride < 0 {
		stride = -stride
	}
	return stride
}

// permutationCost scores a loop order: the total element stride of all
// references for the innermost loop, weighted so inner loops dominate.
// Lower is better (unit-stride innermost is ideal).
func permutationCost(perm []int, refs []polyhedral.Ref, data *chunking.DataSpace) float64 {
	cost := 0.0
	weight := 1.0
	for lvl := len(perm) - 1; lvl >= 0; lvl-- {
		dim := perm[lvl]
		for _, ref := range refs {
			s := strideOf(ref, data.Arrays[ref.Array], dim)
			cost += weight * float64(s)
		}
		weight /= 16 // outer loops matter far less
	}
	return cost
}

// permutations enumerates all permutations of [0,n) in lexicographic order.
func permutations(n int) [][]int {
	var out [][]int
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	var rec func(k int)
	rec = func(k int) {
		if k == n {
			out = append(out, append([]int(nil), perm...))
			return
		}
		for i := k; i < n; i++ {
			perm[k], perm[i] = perm[i], perm[k]
			rec(k + 1)
			perm[k], perm[i] = perm[i], perm[k]
		}
	}
	rec(0)
	return out
}

// BestPermutation returns the legal loop permutation with the lowest stride
// cost (the classical locality-driven loop permutation). Dependences are
// respected; the identity permutation is always legal and acts as the
// fallback.
func BestPermutation(nest *polyhedral.Nest, refs []polyhedral.Ref, data *chunking.DataSpace,
	deps []polyhedral.Dependence) []int {
	depth := nest.Depth()
	best := make([]int, depth)
	for i := range best {
		best[i] = i
	}
	bestCost := permutationCost(best, refs, data)
	if depth == 1 {
		return best
	}
	for _, perm := range permutations(depth) {
		if !polyhedral.LegalPermutation(deps, perm) {
			continue
		}
		if c := permutationCost(perm, refs, data); c < bestCost {
			bestCost = c
			copy(best, perm)
		}
	}
	return best
}

// TileSizes picks tile sizes so one tile's data footprint roughly fits the
// given cache capacity (in data chunks) — the standard working-set
// heuristic behind iteration-space tiling. Dimensions that no reference
// strides through get tile size 0 (untiled). A non-positive capacity
// disables tiling entirely.
func TileSizes(nest *polyhedral.Nest, refs []polyhedral.Ref, data *chunking.DataSpace,
	cacheChunks int) []int64 {
	depth := nest.Depth()
	tiles := make([]int64, depth)
	if cacheChunks <= 0 {
		return tiles
	}
	// Per-iteration footprint in bytes (each ref touches one element).
	var elemBytes int64
	for _, ref := range refs {
		elemBytes += data.Arrays[ref.Array].ElemSize
	}
	if elemBytes == 0 {
		return tiles
	}
	budgetBytes := int64(cacheChunks) * data.ChunkBytes
	perTile := float64(budgetBytes) / float64(elemBytes)
	if perTile < 1 {
		perTile = 1
	}
	// Count dimensions any reference actually walks.
	walked := make([]bool, depth)
	nWalked := 0
	for dim := 0; dim < depth; dim++ {
		for _, ref := range refs {
			if strideOf(ref, data.Arrays[ref.Array], dim) != 0 {
				walked[dim] = true
			}
		}
		if walked[dim] {
			nWalked++
		}
	}
	if nWalked == 0 {
		return tiles
	}
	side := int64(math.Pow(perTile, 1/float64(nWalked)))
	if side < 2 {
		side = 2
	}
	for dim := 0; dim < depth; dim++ {
		if !walked[dim] {
			continue
		}
		t := side
		if sz := nest.DimSize(dim); t > sz {
			t = sz
		}
		tiles[dim] = t
	}
	return tiles
}

// Tileable reports whether rectangular tiling of the whole nest is legal:
// the loops must be fully permutable, i.e. every dependence must have a
// fully known, component-wise non-negative distance vector. (Strip-mining
// all loops and moving the tile loops outermost — which is what
// polyhedral.Order does — reorders iterations arbitrarily within the
// permutable band, so anything weaker is unsound without skewing.)
func Tileable(deps []polyhedral.Dependence) bool {
	for _, d := range deps {
		for k := range d.Distance {
			if !d.Known[k] || d.Distance[k] < 0 {
				return false
			}
		}
	}
	return true
}

// Optimize combines permutation and (when legal) tiling into the execution
// order the intra-processor baseline uses. cacheChunks sizes the tiles
// (typically the client-node storage cache capacity). Nests that are not
// fully permutable get permutation only — the classical compiler fallback
// when rectangular tiling is illegal.
func Optimize(nest *polyhedral.Nest, refs []polyhedral.Ref, data *chunking.DataSpace,
	deps []polyhedral.Dependence, cacheChunks int) polyhedral.Order {
	return CandidateOrders(nest, refs, data, deps, cacheChunks)[0]
}

// CandidateOrders returns the optimized order plus variants with uniform
// tile sizes from sizes, all using the best legal permutation. The caller
// evaluates each and keeps the best, mirroring the paper's "we
// experimented with different tile sizes and selected the one that
// performs the best". When tiling is illegal only the permuted order is
// returned.
func CandidateOrders(nest *polyhedral.Nest, refs []polyhedral.Ref, data *chunking.DataSpace,
	deps []polyhedral.Dependence, cacheChunks int, sizes ...int64) []polyhedral.Order {
	perm := BestPermutation(nest, refs, data, deps)
	if !Tileable(deps) {
		return []polyhedral.Order{{Perm: perm}}
	}
	out := []polyhedral.Order{{Perm: perm, Tiles: TileSizes(nest, refs, data, cacheChunks)}}
	for _, s := range sizes {
		tiles := make([]int64, nest.Depth())
		for d := range tiles {
			tiles[d] = s
			if sz := nest.DimSize(d); tiles[d] > sz {
				tiles[d] = sz
			}
		}
		out = append(out, polyhedral.Order{Perm: append([]int(nil), perm...), Tiles: tiles})
	}
	return out
}
