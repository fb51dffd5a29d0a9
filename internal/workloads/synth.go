package workloads

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/chunking"
	"repro/internal/iosim"
	"repro/internal/polyhedral"
)

// StreamSpec is one read stream of a synthetic workload: the reference
// In[Stride·i + Offset + Drift·t] over a shared input array.
type StreamSpec struct {
	Stride int64 // element stride per iteration (>= 1)
	Offset int64 // constant element offset
	Drift  int64 // elements the stream slides per pass
}

// SynthSpec parameterizes the synthetic workload generator. It captures
// the axes along which the paper's eight applications differ: pass count,
// per-pass extent, read streams with strides/offsets/drift, a shared hot
// table, and whether output is written per pass or updated in place.
type SynthSpec struct {
	Name       string
	Passes     int64 // outer time loop trip count (>= 1)
	Extent     int64 // iterations per pass (>= 1)
	Streams    []StreamSpec
	HotTable   int64 // hot shared table size in elements; 0 disables
	PerPassOut bool  // true: Out[t,i] (tileable); false: Out[i] in place
	ElemBytes  int64 // record size; 0 defaults to 512, negative is an error
	ChunkBytes int64 // data chunk size; 0 defaults to DefaultChunkBytes, negative is an error
}

// Synthesize builds a workload from the spec. The generated program has
// one input array sized to cover every stream, an output array, and an
// optional hot table; all the structural properties the mapping pipeline
// depends on (affine references, per-pass drift, chunk-aligned extents)
// follow from the spec.
func Synthesize(spec SynthSpec) (Workload, error) {
	if spec.Passes < 1 || spec.Extent < 1 {
		return Workload{}, fmt.Errorf("workloads: synth %q needs Passes >= 1 and Extent >= 1", spec.Name)
	}
	if len(spec.Streams) == 0 {
		return Workload{}, fmt.Errorf("workloads: synth %q has no streams", spec.Name)
	}
	if spec.ElemBytes < 0 || spec.ChunkBytes < 0 {
		return Workload{}, fmt.Errorf("workloads: synth %q has a negative ElemBytes or ChunkBytes", spec.Name)
	}
	elemB := spec.ElemBytes
	if elemB == 0 {
		elemB = 512
	}
	chunkB := spec.ChunkBytes
	if chunkB == 0 {
		chunkB = DefaultChunkBytes
	}
	// Size the input to the maximal subscript any stream can reach.
	var maxSub int64
	for i, st := range spec.Streams {
		if st.Stride < 1 {
			return Workload{}, fmt.Errorf("workloads: synth %q stream %d has stride %d", spec.Name, i, st.Stride)
		}
		if st.Offset < 0 || st.Drift < 0 {
			return Workload{}, fmt.Errorf("workloads: synth %q stream %d has negative offset/drift", spec.Name, i)
		}
		sub, ok := streamReach(st, spec.Extent, spec.Passes)
		if !ok {
			return Workload{}, fmt.Errorf("workloads: synth %q stream %d's largest subscript overflows int64", spec.Name, i)
		}
		maxSub = max(maxSub, sub)
	}

	arrays := []chunking.Array{{Name: "In", Dims: []int64{maxSub + 1}, ElemSize: elemB}}
	outArray := 1
	if spec.PerPassOut {
		arrays = append(arrays, chunking.Array{Name: "Out", Dims: []int64{spec.Passes, spec.Extent}, ElemSize: elemB})
	} else {
		arrays = append(arrays, chunking.Array{Name: "Out", Dims: []int64{spec.Extent}, ElemSize: elemB})
	}
	hotArray := -1
	if spec.HotTable > 0 {
		hotArray = len(arrays)
		arrays = append(arrays, chunking.Array{Name: "Hot", Dims: []int64{spec.HotTable}, ElemSize: elemB})
	}
	if err := checkBytes("synth", spec.Name, arrays); err != nil {
		return Workload{}, err
	}
	data := chunking.NewDataSpace(chunkB, arrays...)

	nest := polyhedral.NewNest(spec.Name, []int64{0, 0}, []int64{spec.Passes - 1, spec.Extent - 1})
	var refs []polyhedral.Ref
	for _, st := range spec.Streams {
		refs = append(refs, polyhedral.Ref{
			Array: 0,
			Exprs: []polyhedral.RefExpr{{Coeffs: []int64{st.Drift, st.Stride}, Offset: st.Offset}},
			Kind:  polyhedral.Read,
		})
	}
	if spec.PerPassOut {
		refs = append(refs, polyhedral.SimpleRef(outArray, 2, []int{0, 1}, []int64{0, 0}, polyhedral.Write))
	} else {
		refs = append(refs, polyhedral.SimpleRef(outArray, 2, []int{1}, []int64{0}, polyhedral.Write))
	}
	if hotArray >= 0 {
		refs = append(refs, polyhedral.Ref{
			Array: hotArray,
			Exprs: []polyhedral.RefExpr{{Coeffs: []int64{0, 1}, Mod: spec.HotTable}},
			Kind:  polyhedral.Read,
		})
	}
	desc := fmt.Sprintf("synthetic: %d passes × %d iterations, %d streams", spec.Passes, spec.Extent, len(spec.Streams))
	return Workload{
		Name: spec.Name,
		Desc: desc,
		Prog: iosim.Program{Nest: nest, Refs: refs, Data: data},
	}, nil
}

// StencilSpec parameterizes a synthetic 2-D stencil workload: a multi-pass
// sweep over a Rows×Cols panel grid reading the given neighbour offsets and
// updating the grid in place (or writing a separate output).
type StencilSpec struct {
	Name       string
	Passes     int64
	Rows, Cols int64
	// Offsets lists the (row, col) neighbour reads; (0,0) is implied.
	Offsets [][2]int64
	// InPlace writes back into the grid (carries a dependence, defeats
	// tiling); otherwise a separate output grid is written.
	InPlace    bool
	ElemBytes  int64
	ChunkBytes int64
}

// SynthesizeStencil builds a 2-D stencil workload from the spec.
func SynthesizeStencil(spec StencilSpec) (Workload, error) {
	if spec.Passes < 1 || spec.Rows < 3 || spec.Cols < 3 {
		return Workload{}, fmt.Errorf("workloads: stencil %q needs Passes >= 1 and a grid of at least 3x3", spec.Name)
	}
	if spec.ElemBytes < 0 || spec.ChunkBytes < 0 {
		return Workload{}, fmt.Errorf("workloads: stencil %q has a negative ElemBytes or ChunkBytes", spec.Name)
	}
	elemB := spec.ElemBytes
	if elemB == 0 {
		elemB = 512
	}
	chunkB := spec.ChunkBytes
	if chunkB == 0 {
		chunkB = DefaultChunkBytes
	}
	// Bound the interior so every offset stays inside the grid.
	var maxR, maxC int64
	for i, off := range spec.Offsets {
		r, c := off[0], off[1]
		if r < 0 {
			r = -r
		}
		if c < 0 {
			c = -c
		}
		if r > maxR {
			maxR = r
		}
		if c > maxC {
			maxC = c
		}
		if r >= spec.Rows/2 || c >= spec.Cols/2 {
			return Workload{}, fmt.Errorf("workloads: stencil %q offset %d reaches outside the grid", spec.Name, i)
		}
	}
	arrays := []chunking.Array{{Name: "G", Dims: []int64{spec.Rows, spec.Cols}, ElemSize: elemB}}
	outArray := 0
	if !spec.InPlace {
		outArray = 1
		arrays = append(arrays, chunking.Array{Name: "Out", Dims: []int64{spec.Rows, spec.Cols}, ElemSize: elemB})
	}
	if err := checkBytes("stencil", spec.Name, arrays); err != nil {
		return Workload{}, err
	}
	data := chunking.NewDataSpace(chunkB, arrays...)
	nest := polyhedral.NewNest(spec.Name,
		[]int64{0, maxR, maxC},
		[]int64{spec.Passes - 1, spec.Rows - 1 - maxR, spec.Cols - 1 - maxC})
	refs := []polyhedral.Ref{
		polyhedral.SimpleRef(0, 3, []int{1, 2}, []int64{0, 0}, polyhedral.Read),
	}
	for _, off := range spec.Offsets {
		refs = append(refs, polyhedral.SimpleRef(0, 3, []int{1, 2}, []int64{off[0], off[1]}, polyhedral.Read))
	}
	refs = append(refs, polyhedral.SimpleRef(outArray, 3, []int{1, 2}, []int64{0, 0}, polyhedral.Write))
	return Workload{
		Name: spec.Name,
		Desc: fmt.Sprintf("synthetic stencil: %d passes over %dx%d panels, %d neighbours", spec.Passes, spec.Rows, spec.Cols, len(spec.Offsets)),
		Prog: iosim.Program{Nest: nest, Refs: refs, Data: data},
	}, nil
}

// streamReach returns a stream's largest subscript, Stride·(Extent−1) +
// Offset + Drift·(Passes−1), whose terms are all non-negative, and false
// unless it and the input size one past it fit in int64.
func streamReach(st StreamSpec, extent, passes int64) (int64, bool) {
	hi1, span := bits.Mul64(uint64(st.Stride), uint64(extent-1))
	hi2, drift := bits.Mul64(uint64(st.Drift), uint64(passes-1))
	sub, c1 := bits.Add64(span, uint64(st.Offset), 0)
	sub, c2 := bits.Add64(sub, drift, 0)
	return int64(sub), hi1|hi2|c1|c2 == 0 && sub < math.MaxInt64
}

// checkBytes rejects a spec with an array whose byte count, its element
// count times its element size, does not fit in int64. A dimension below 1
// is rejected too, though the specs' own checks leave none.
func checkBytes(kind, name string, arrays []chunking.Array) error {
	for _, a := range arrays {
		bytes := a.ElemSize
		for _, d := range a.Dims {
			if d < 1 || d > math.MaxInt64/bytes {
				return fmt.Errorf("workloads: %s %q: array %s of %d-byte elements overflows int64 bytes", kind, name, a.Name, a.ElemSize)
			}
			bytes *= d
		}
	}
	return nil
}
