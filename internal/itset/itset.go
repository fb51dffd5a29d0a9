// Package itset implements run-length encoded sets of loop iterations.
//
// Iterations of a loop nest are identified by their position in the
// lexicographic execution order (a single int64 index). An iteration chunk
// γ^Λ — the set of iterations sharing tag Λ — is stored as a sorted list of
// half-open runs [Start, End). Because tags change only at data-chunk
// boundaries, these sets are extremely compressible, and splitting a chunk
// during load balancing is an exact O(runs) operation. The package stands in
// for the Omega Library's codegen(): enumerating a Set replays exactly the
// iterations of the chunk in lexicographic order.
package itset

import (
	"fmt"
	"sort"
	"strings"
)

// Run is a half-open interval [Start, End) of lexicographic iteration
// indices. A Run with Start >= End is empty.
type Run struct {
	Start, End int64
}

// Len returns the number of iterations in the run.
func (r Run) Len() int64 {
	if r.End <= r.Start {
		return 0
	}
	return r.End - r.Start
}

// Set is a sorted, coalesced list of non-overlapping runs.
// The zero value is the empty set.
type Set struct {
	runs []Run
}

// FromRuns builds a Set from arbitrary runs (they may overlap or be
// unsorted; the result is normalized).
func FromRuns(runs ...Run) Set {
	s := Set{}
	for _, r := range runs {
		if r.Len() > 0 {
			s.runs = append(s.runs, r)
		}
	}
	s.normalize()
	return s
}

// FromSortedRuns returns the set whose runs are exactly runs, which it
// takes without copying: each run must be non-empty and start after the
// previous one ends, neither overlapping nor touching it. It checks that
// in O(runs) and panics on a violation.
func FromSortedRuns(runs []Run) Set {
	for i, r := range runs {
		if r.End <= r.Start || i > 0 && r.Start <= runs[i-1].End {
			panic(fmt.Sprintf("itset: run %d [%d,%d) is empty or not after the previous run", i, r.Start, r.End))
		}
	}
	return Set{runs: runs}
}

// Single returns the set containing exactly one iteration index.
func Single(i int64) Set { return Set{runs: []Run{{i, i + 1}}} }

// Interval returns the set [start, end).
func Interval(start, end int64) Set {
	if end <= start {
		return Set{}
	}
	return Set{runs: []Run{{start, end}}}
}

func (s *Set) normalize() {
	if len(s.runs) == 0 {
		return
	}
	sort.Slice(s.runs, func(i, j int) bool { return s.runs[i].Start < s.runs[j].Start })
	out := s.runs[:1]
	for _, r := range s.runs[1:] {
		last := &out[len(out)-1]
		if r.Start <= last.End {
			if r.End > last.End {
				last.End = r.End
			}
		} else {
			out = append(out, r)
		}
	}
	s.runs = out
}

// Append adds the run [start, end) to the set. Appending in increasing
// order is O(1); out-of-order appends trigger a renormalization.
func (s *Set) Append(start, end int64) {
	if end <= start {
		return
	}
	if n := len(s.runs); n > 0 {
		last := &s.runs[n-1]
		if start == last.End {
			last.End = end
			return
		}
		if start > last.End {
			s.runs = append(s.runs, Run{start, end})
			return
		}
		s.runs = append(s.runs, Run{start, end})
		s.normalize()
		return
	}
	s.runs = append(s.runs, Run{start, end})
}

// Count returns the number of iterations in the set.
func (s Set) Count() int64 {
	var total int64
	for _, r := range s.runs {
		total += r.Len()
	}
	return total
}

// IsEmpty reports whether the set has no iterations.
func (s Set) IsEmpty() bool { return len(s.runs) == 0 }

// Runs returns a copy of the underlying runs in increasing order.
func (s Set) Runs() []Run {
	out := make([]Run, len(s.runs))
	copy(out, s.runs)
	return out
}

// Contains reports whether index i is in the set.
func (s Set) Contains(i int64) bool {
	lo, hi := 0, len(s.runs)
	for lo < hi {
		mid := (lo + hi) / 2
		switch {
		case i < s.runs[mid].Start:
			hi = mid
		case i >= s.runs[mid].End:
			lo = mid + 1
		default:
			return true
		}
	}
	return false
}

// Min returns the smallest index in the set; it panics on an empty set.
func (s Set) Min() int64 {
	if s.IsEmpty() {
		panic("itset: Min of empty set")
	}
	return s.runs[0].Start
}

// Max returns the largest index in the set; it panics on an empty set.
func (s Set) Max() int64 {
	if s.IsEmpty() {
		panic("itset: Max of empty set")
	}
	return s.runs[len(s.runs)-1].End - 1
}

// ForEach calls fn for each index in increasing order; it stops early if
// fn returns false.
func (s Set) ForEach(fn func(i int64) bool) {
	for _, r := range s.runs {
		for i := r.Start; i < r.End; i++ {
			if !fn(i) {
				return
			}
		}
	}
}

// ForEachRun calls fn for each run in increasing order.
func (s Set) ForEachRun(fn func(r Run)) {
	for _, r := range s.runs {
		fn(r)
	}
}

// Union returns s ∪ o.
func (s Set) Union(o Set) Set {
	merged := make([]Run, 0, len(s.runs)+len(o.runs))
	merged = append(merged, s.runs...)
	merged = append(merged, o.runs...)
	out := Set{runs: merged}
	out.normalize()
	return out
}

// Intersect returns s ∩ o.
func (s Set) Intersect(o Set) Set {
	var out Set
	i, j := 0, 0
	for i < len(s.runs) && j < len(o.runs) {
		a, b := s.runs[i], o.runs[j]
		lo := max64(a.Start, b.Start)
		hi := min64(a.End, b.End)
		if lo < hi {
			out.Append(lo, hi)
		}
		if a.End < b.End {
			i++
		} else {
			j++
		}
	}
	return out
}

// Shift returns the set with every index translated by delta.
func (s Set) Shift(delta int64) Set {
	out := Set{runs: make([]Run, len(s.runs))}
	for i, r := range s.runs {
		out.runs[i] = Run{r.Start + delta, r.End + delta}
	}
	return out
}

// SplitAt partitions the set into (first n iterations, rest). If n <= 0 the
// first part is empty; if n >= Count() the second part is empty.
func (s Set) SplitAt(n int64) (Set, Set) {
	if n <= 0 {
		return Set{}, s.clone()
	}
	var first, rest Set
	remaining := n
	for _, r := range s.runs {
		if remaining <= 0 {
			rest.Append(r.Start, r.End)
			continue
		}
		l := r.Len()
		if l <= remaining {
			first.Append(r.Start, r.End)
			remaining -= l
		} else {
			first.Append(r.Start, r.Start+remaining)
			rest.Append(r.Start+remaining, r.End)
			remaining = 0
		}
	}
	return first, rest
}

func (s Set) clone() Set {
	out := Set{runs: make([]Run, len(s.runs))}
	copy(out.runs, s.runs)
	return out
}

// Clone returns an independent copy of the set.
func (s Set) Clone() Set { return s.clone() }

// Equal reports whether two sets contain exactly the same indices.
func (s Set) Equal(o Set) bool {
	if len(s.runs) != len(o.runs) {
		return false
	}
	for i := range s.runs {
		if s.runs[i] != o.runs[i] {
			return false
		}
	}
	return true
}

// String renders the set as "[a,b) ∪ [c,d)" for debugging.
func (s Set) String() string {
	if s.IsEmpty() {
		return "∅"
	}
	parts := make([]string, len(s.runs))
	for i, r := range s.runs {
		parts[i] = fmt.Sprintf("[%d,%d)", r.Start, r.End)
	}
	return strings.Join(parts, " ∪ ")
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
