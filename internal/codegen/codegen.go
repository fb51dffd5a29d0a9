// Package codegen renders the per-client loop code that the paper's
// compiler emits after mapping: for each client, a sequence of loop nests
// that enumerate exactly the iterations of its assigned iteration chunks,
// in schedule order. It plays the role of the Omega Library's codegen()
// utility in the paper's toolchain (Section 4.2).
//
// Iteration chunks are run-length sets over the lexicographic box order, so
// each maximal run becomes one rectangular nest fragment: either a full
// sub-nest (when the run spans whole rows of inner loops) or a partial
// innermost loop. The output is valid-looking pseudo-Go, intended for
// inspection and for asserting in tests that generated code enumerates the
// right iterations.
package codegen

import (
	"fmt"
	"strings"

	"repro/internal/itset"
	"repro/internal/polyhedral"
	"repro/internal/tags"
)

// Render produces the loop code that enumerates the given iteration set of
// a nest, one fragment per run. Iterator names default to i0, i1, … unless
// names are supplied.
func Render(nest *polyhedral.Nest, set itset.Set, names ...string) string {
	var sb strings.Builder
	set.ForEachRun(func(r itset.Run) {
		sb.WriteString(renderRun(nest, r, names))
	})
	if sb.Len() == 0 {
		return "// (no iterations)\n"
	}
	return sb.String()
}

// RenderChunks renders a client's whole schedule: each iteration chunk in
// order, labelled with its tag.
func RenderChunks(nest *polyhedral.Nest, chunks []*tags.IterationChunk, names ...string) string {
	var sb strings.Builder
	for idx, c := range chunks {
		fmt.Fprintf(&sb, "// chunk %d: tag %s (%d iterations)\n", idx, c.Tag, c.Count())
		sb.WriteString(Render(nest, c.Iters, names...))
	}
	if sb.Len() == 0 {
		return "// (empty schedule)\n"
	}
	return sb.String()
}

func iterName(names []string, k int) string {
	if k < len(names) {
		return names[k]
	}
	return fmt.Sprintf("i%d", k)
}

// renderRun emits one run [r.Start, r.End) as loop code. The run is split
// into (head partial row) + (whole-row middle) + (tail partial row) of the
// innermost dimension; deeper regularities collapse into outer loops when
// the run covers whole inner blocks.
func renderRun(nest *polyhedral.Nest, r itset.Run, names []string) string {
	depth := nest.Depth()
	var sb strings.Builder
	lo := nest.IndexToIter(r.Start, nil)
	hi := nest.IndexToIter(r.End-1, nil)

	// Fast path: single iteration.
	if r.Len() == 1 {
		sb.WriteString("execute(")
		sb.WriteString(vecString(lo, names))
		sb.WriteString(")\n")
		return sb.String()
	}

	// Find the outermost level at which lo and hi differ; above it all
	// iterators are fixed.
	split := 0
	for split < depth && lo[split] == hi[split] {
		split++
	}
	indent := ""
	for k := 0; k < split; k++ {
		fmt.Fprintf(&sb, "%s%s := %d\n", indent, iterName(names, k), lo[k])
	}
	if split == depth {
		// Identical vectors handled above; defensive.
		sb.WriteString("execute(" + vecString(lo, names) + ")\n")
		return sb.String()
	}
	// Whole-box run across the split dimension?
	if wholeInner(nest, lo, split+1) && wholeInnerHi(nest, hi, split+1) {
		// for i_split = lo..hi: full inner box.
		fmt.Fprintf(&sb, "%sfor %s := %d; %s <= %d; %s++ {\n",
			indent, iterName(names, split), lo[split], iterName(names, split), hi[split], iterName(names, split))
		sb.WriteString(innerLoops(nest, split+1, indent+"\t", names))
		fmt.Fprintf(&sb, "%s}\n", indent)
		return sb.String()
	}
	// General case: emit head row, middle rows, tail row recursively by
	// splitting the run at row boundaries of the split dimension.
	rowSize := int64(1)
	for k := split + 1; k < depth; k++ {
		rowSize *= nest.DimSize(k)
	}
	// First boundary at or after Start where iterator `split` increments.
	headEnd := r.Start + (rowSize-r.Start%rowSize)%rowSize
	if headEnd > r.End {
		headEnd = r.End
	}
	tailStart := r.End - (r.End % rowSize)
	if tailStart < headEnd {
		tailStart = r.End
	}
	if headEnd > r.Start {
		sb.WriteString(renderRun(nest, itset.Run{Start: r.Start, End: headEnd}, names))
	}
	if tailStart > headEnd {
		sb.WriteString(renderRun(nest, itset.Run{Start: headEnd, End: tailStart}, names))
	}
	if r.End > tailStart {
		sb.WriteString(renderRun(nest, itset.Run{Start: tailStart, End: r.End}, names))
	}
	return sb.String()
}

// wholeInner reports whether iter is at the lower bound of every dimension
// from level onward.
func wholeInner(nest *polyhedral.Nest, iter []int64, level int) bool {
	for k := level; k < nest.Depth(); k++ {
		if iter[k] != nest.Lower[k] {
			return false
		}
	}
	return true
}

// wholeInnerHi reports whether iter is at the upper bound of every
// dimension from level onward.
func wholeInnerHi(nest *polyhedral.Nest, iter []int64, level int) bool {
	for k := level; k < nest.Depth(); k++ {
		if iter[k] != nest.Upper[k] {
			return false
		}
	}
	return true
}

// innerLoops emits full loops for dimensions level..depth with a final
// execute().
func innerLoops(nest *polyhedral.Nest, level int, indent string, names []string) string {
	var sb strings.Builder
	cur := indent
	for k := level; k < nest.Depth(); k++ {
		fmt.Fprintf(&sb, "%sfor %s := %d; %s <= %d; %s++ {\n",
			cur, iterName(names, k), nest.Lower[k], iterName(names, k), nest.Upper[k], iterName(names, k))
		cur += "\t"
	}
	all := make([]string, nest.Depth())
	for k := range all {
		all[k] = iterName(names, k)
	}
	fmt.Fprintf(&sb, "%sexecute(%s)\n", cur, strings.Join(all, ", "))
	for k := nest.Depth() - 1; k >= level; k-- {
		cur = cur[:len(cur)-1]
		fmt.Fprintf(&sb, "%s}\n", cur)
	}
	return sb.String()
}

func vecString(iter []int64, names []string) string {
	parts := make([]string, len(iter))
	for k, v := range iter {
		parts[k] = fmt.Sprintf("%s=%d", iterName(names, k), v)
	}
	return strings.Join(parts, ", ")
}
