package core

import (
	"repro/internal/polyhedral"
	"repro/internal/tags"
)

// DependentPairs identifies iteration-chunk pairs connected by a data
// dependence (Section 5.4). For dependences with fully known distance
// vectors the test is exact on the rectangular box: chunk j depends on
// chunk i iff shifting i's iterations by the distance lands inside j.
// Dependences with unknown entries fall back to a conservative
// approximation: any two chunks whose tags share a data chunk are treated
// as dependent. Self pairs are omitted (intra-chunk dependences are
// satisfied by the chunk's sequential execution on one client).
//
// All chunks must belong to the given nest (multi-nest callers should
// filter by Nest first).
func DependentPairs(chunks []*tags.IterationChunk, nest *polyhedral.Nest, deps []polyhedral.Dependence) [][2]int {
	if len(deps) == 0 || len(chunks) < 2 {
		return nil
	}
	var out [][2]int
	seen := make(map[[2]int]bool)
	add := func(i, j int) {
		if i == j {
			return
		}
		if i > j {
			i, j = j, i
		}
		k := [2]int{i, j}
		if !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	// The conservative approximation (tag overlap implies potential
	// dependence) does not depend on the dependence itself, so it is
	// computed at most once — via the similarity engine's inverted index,
	// which enumerates only overlapping pairs — and reused for every
	// dependence with unknown distance entries.
	var overlap [][2]int
	overlapDone := false
	for _, d := range deps {
		known := true
		for _, k := range d.Known {
			known = known && k
		}
		if !known {
			if !overlapDone {
				overlapDone = true
				rows := make([][]int32, len(chunks))
				for i, c := range chunks {
					rows[i] = c.Tag.Bits()
				}
				overlap = tagOverlapPairs(rows, chunks[0].Tag.Len())
			}
			for _, p := range overlap {
				add(p[0], p[1])
			}
			continue
		}
		delta := indexDelta(nest, d.Distance)
		if delta == 0 {
			continue // loop-independent: same iteration, same chunk
		}
		for i := range chunks {
			shifted := chunks[i].Iters.Shift(delta)
			for j := range chunks {
				if i == j {
					continue
				}
				if !chunks[j].Iters.Intersect(shifted).IsEmpty() {
					add(i, j)
				}
			}
		}
	}
	return out
}

// indexDelta converts a distance vector to a lexicographic box-index delta.
// Exact for rectangular nests (the shift of a full-rank distance inside the
// box); boundary iterations whose shifted counterpart falls outside the box
// are over-approximated, which is safe (never misses a dependence).
func indexDelta(nest *polyhedral.Nest, dist []int64) int64 {
	var delta int64
	for k := 0; k < nest.Depth(); k++ {
		delta = delta*nest.DimSize(k) + dist[k]
	}
	return delta
}

// CrossClientDependences counts how many dependent chunk pairs ended up on
// different clients under an assignment — the number of inter-processor
// synchronization edges the second Section 5.4 strategy must insert. assign
// is the per-client chunk list; pairs indexes into the original chunk list
// order, with chunkOwner mapping each original chunk to its client (−1 for
// chunks split/absent).
func CrossClientDependences(pairs [][2]int, chunkOwner []int) int {
	n := 0
	for _, p := range pairs {
		a, b := chunkOwner[p[0]], chunkOwner[p[1]]
		if a >= 0 && b >= 0 && a != b {
			n++
		}
	}
	return n
}
