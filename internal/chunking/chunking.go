// Package chunking models the disk-resident data space of a workload and
// its partition into equal-sized data chunks π0…π(r−1).
//
// Following Figure 4 of the paper, every array is partitioned separately —
// no chunk spans two arrays — and chunk labels increase contiguously from
// the last chunk of array t to the first chunk of array t+1. The chunk is
// both the tag granularity of the mapping algorithm and the unit at which
// storage caches and the striped disk operate.
package chunking

import "fmt"

// Array describes one disk-resident array: its dimensions (row-major
// layout) and element size in bytes.
type Array struct {
	Name     string
	Dims     []int64
	ElemSize int64
}

// NumElems returns the number of elements in the array.
func (a Array) NumElems() int64 {
	n := int64(1)
	for _, d := range a.Dims {
		n *= d
	}
	return n
}

// Bytes returns the array's total size in bytes.
func (a Array) Bytes() int64 { return a.NumElems() * a.ElemSize }

// LinearIndex converts a subscript vector to the row-major element index.
// Subscripts are 0-based; out-of-bounds subscripts are clamped into the
// array (out-of-core codes routinely touch boundary halos, and clamping
// keeps the chunk-access pattern faithful without spurious panics).
func (a Array) LinearIndex(subs []int64) int64 {
	if len(subs) != len(a.Dims) {
		panic(fmt.Sprintf("chunking: %d subscripts for %d-d array %q", len(subs), len(a.Dims), a.Name))
	}
	var idx int64
	for d, s := range subs {
		if s < 0 {
			s = 0
		} else if s >= a.Dims[d] {
			s = a.Dims[d] - 1
		}
		idx = idx*a.Dims[d] + s
	}
	return idx
}

// DataSpace is the combined data space of all disk-resident arrays of a
// workload, partitioned into equal data chunks of ChunkBytes bytes.
type DataSpace struct {
	Arrays     []Array
	ChunkBytes int64

	chunkBase []int // first global chunk id of each array
	numChunks int
}

// NewDataSpace builds the data space and assigns global chunk numbers.
func NewDataSpace(chunkBytes int64, arrays ...Array) *DataSpace {
	if chunkBytes <= 0 {
		panic(fmt.Sprintf("chunking: non-positive chunk size %d", chunkBytes))
	}
	if len(arrays) == 0 {
		panic("chunking: data space with no arrays")
	}
	ds := &DataSpace{Arrays: arrays, ChunkBytes: chunkBytes}
	ds.chunkBase = make([]int, len(arrays)+1)
	for t, a := range arrays {
		if a.ElemSize <= 0 {
			panic(fmt.Sprintf("chunking: array %q has element size %d", a.Name, a.ElemSize))
		}
		if a.NumElems() <= 0 {
			panic(fmt.Sprintf("chunking: array %q is empty", a.Name))
		}
		n := (a.Bytes()-1)/chunkBytes + 1 // rounds up without overflowing
		ds.chunkBase[t+1] = ds.chunkBase[t] + int(n)
	}
	ds.numChunks = ds.chunkBase[len(arrays)]
	return ds
}

// NumChunks returns r, the total number of data chunks across all arrays.
func (ds *DataSpace) NumChunks() int { return ds.numChunks }

// ChunkBase returns the global id of the first chunk of array t.
func (ds *DataSpace) ChunkBase(t int) int { return ds.chunkBase[t] }

// TotalBytes returns the combined size of all arrays.
func (ds *DataSpace) TotalBytes() int64 {
	var total int64
	for _, a := range ds.Arrays {
		total += a.Bytes()
	}
	return total
}

// ChunkOf maps (array t, subscript vector) to the global data chunk id.
func (ds *DataSpace) ChunkOf(t int, subs []int64) int {
	if t < 0 || t >= len(ds.Arrays) {
		panic(fmt.Sprintf("chunking: array index %d out of range", t))
	}
	a := ds.Arrays[t]
	byteOff := a.LinearIndex(subs) * a.ElemSize
	local := int(byteOff / ds.ChunkBytes)
	return ds.chunkBase[t] + local
}

// Rescale returns a new DataSpace over the same arrays with a different
// chunk size (the Figure 14 sensitivity knob).
func (ds *DataSpace) Rescale(chunkBytes int64) *DataSpace {
	return NewDataSpace(chunkBytes, ds.Arrays...)
}

// String summarizes the data space.
func (ds *DataSpace) String() string {
	return fmt.Sprintf("dataspace: %d arrays, %d bytes, %d chunks of %d bytes",
		len(ds.Arrays), ds.TotalBytes(), ds.numChunks, ds.ChunkBytes)
}
