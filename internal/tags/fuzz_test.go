package tags

import (
	"context"
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/chunking"
	"repro/internal/itset"
	"repro/internal/polyhedral"
	"repro/internal/workloads"
)

// enumerate is the segment tagger's oracle, a per-iteration tagger: it
// evaluates every reference at every executing iteration through
// polyhedral.Ref.Eval and chunking.DataSpace.ChunkOf, and groups the
// iterations by their sorted distinct chunk list, in order of first
// iteration.
func enumerate(nest *polyhedral.Nest, refs []polyhedral.Ref, data *chunking.DataSpace) []*IterationChunk {
	type group struct {
		bits  []int32
		iters itset.Set
	}
	groups := make(map[string]*group)
	var order []*group
	var key []byte
	nest.ForEach(func(it []int64) bool {
		idx := nest.IterToIndex(it)
		var bits []int32
		for _, ref := range refs {
			bits = append(bits, int32(data.ChunkOf(ref.Array, ref.Eval(it, nil))))
		}
		slices.Sort(bits)
		bits = slices.Compact(bits)
		key = key[:0]
		for _, b := range bits {
			key = binary.LittleEndian.AppendUint32(key, uint32(b))
		}
		g, ok := groups[string(key)]
		if !ok {
			g = &group{bits: bits}
			groups[string(key)] = g
			order = append(order, g)
		}
		g.iters.Append(idx, idx+1)
		return true
	})
	out := make([]*IterationChunk, len(order))
	for i, g := range order {
		out[i] = &IterationChunk{Tag: bitvec.NewSparse(data.NumChunks(), g.bits), Iters: g.iters}
	}
	return out
}

// fuzzSource hands out a fuzz input's bytes one at a time, and zeros once
// they run out, so that every input decodes to some program.
type fuzzSource []byte

func (s *fuzzSource) next() int {
	if len(*s) == 0 {
		return 0
	}
	b := (*s)[0]
	*s = (*s)[1:]
	return int(b)
}

// intn returns a value in [0, n).
func (s *fuzzSource) intn(n int) int { return s.next() % n }

// span returns a value in [lo, hi].
func (s *fuzzSource) span(lo, hi int64) int64 { return lo + int64(s.next())%(hi-lo+1) }

// fuzzProgram decodes a random nest, its references and their data space
// from shape: depth 1–3 with bounds that may be negative and 0–2 guards;
// 1–2 arrays of 1–3 dimensions whose element sizes rarely divide the chunk
// size; and 1–4 references whose innermost coefficients are positive,
// negative, zero or missing, some through a Mod wrap or an index table,
// with offsets and table entries that clamp at both array ends.
func fuzzProgram(shape []byte, chunkBytes int64) (*polyhedral.Nest, []polyhedral.Ref, *chunking.DataSpace) {
	src := fuzzSource(shape)
	depth := 1 + src.intn(3)
	lower, upper := make([]int64, depth), make([]int64, depth)
	for k := range lower {
		extent := 1 + src.intn(8)
		if k == depth-1 {
			extent = 1 + src.intn(160)
		}
		lower[k] = src.span(-6, 6)
		upper[k] = lower[k] + int64(extent) - 1
	}
	nest := polyhedral.NewNest("fuzz", lower, upper)
	for range src.intn(3) {
		coeffs := make([]int64, depth)
		for k := range coeffs {
			coeffs[k] = src.span(-3, 3)
		}
		nest.AddGuard(coeffs, src.span(-40, 40))
	}
	arrays := make([]chunking.Array, 1+src.intn(2))
	for a := range arrays {
		dims := make([]int64, 1+src.intn(3))
		for d := range dims {
			dims[d] = 1 + int64(src.intn(24))
		}
		arrays[a] = chunking.Array{Name: fmt.Sprint("A", a), Dims: dims, ElemSize: 1 + int64(src.intn(256))*3}
	}
	data := chunking.NewDataSpace(chunkBytes, arrays...)
	table := func() []int64 {
		t := make([]int64, 1+src.intn(12))
		for i := range t {
			t[i] = src.span(-4, 28)
		}
		return t
	}
	refs := make([]polyhedral.Ref, 1+src.intn(4))
	for i := range refs {
		a := src.intn(len(arrays))
		exprs := make([]polyhedral.RefExpr, len(arrays[a].Dims))
		for d := range exprs {
			coeffs := make([]int64, depth)
			for k := range coeffs {
				coeffs[k] = src.span(-3, 3)
			}
			if src.intn(4) == 0 {
				coeffs[depth-1] = src.span(-12, 12)
			}
			if src.intn(6) == 0 {
				coeffs = coeffs[:src.intn(depth)]
			}
			e := polyhedral.RefExpr{Coeffs: coeffs, Offset: src.span(-24, 48)}
			switch src.intn(8) {
			case 0:
				e.Mod = src.span(1, 30)
			case 1:
				e.Table = table()
			case 2:
				e.Mod, e.Table = src.span(1, 30), table()
			}
			exprs[d] = e
		}
		refs[i] = polyhedral.Ref{Array: a, Exprs: exprs}
	}
	return nest, refs, data
}

// Base-program selectors after the paper's eight applications, which take
// the values 0–7 in workloads.Names order.
const (
	fuzzIrregular = 8
	fuzzFigure6   = 9
	fuzzRandom    = 10
)

// FuzzTagsMatchEnumeration holds the segment tagger, sharded into 1, 2 or
// 5 shards that may start mid-row, to the per-iteration enumerator. The
// arguments pick a base program — a paper application or the irregular
// mesh at the given chunk size, Figure 6 with that many 1-byte elements
// per chunk, or a random program decoded from shape — and the shard count.
func FuzzTagsMatchEnumeration(f *testing.F) {
	for app := range workloads.Names() {
		for _, kb := range []uint16{4, 1} {
			f.Add(uint8(app), kb<<10, uint8(app), []byte(nil))
		}
	}
	f.Add(uint8(fuzzIrregular), uint16(4096), uint8(1), []byte(nil))
	f.Add(uint8(fuzzFigure6), uint16(8), uint8(2), []byte(nil))
	rr := rand.New(rand.NewSource(1))
	for i := range 64 {
		shape := make([]byte, 96)
		for k := range shape {
			shape[k] = byte(rr.Intn(256))
		}
		f.Add(uint8(fuzzRandom), uint16(8+rr.Intn(4096)), uint8(i), shape)
	}
	f.Fuzz(func(t *testing.T, base uint8, chunkBytes uint16, workers uint8, shape []byte) {
		var (
			nest *polyhedral.Nest
			refs []polyhedral.Ref
			data *chunking.DataSpace
		)
		names := workloads.Names()
		switch b := int(base % 12); {
		case b < len(names):
			w, err := workloads.Get(names[b], 1)
			if err != nil {
				t.Fatal(err)
			}
			w = w.WithChunkBytes(max(int64(chunkBytes), 64))
			nest, refs, data = w.Prog.Nest, w.Prog.Refs, w.Prog.Data
		case b == fuzzIrregular:
			w := workloads.Irregular(1, 7).WithChunkBytes(max(int64(chunkBytes), 64))
			nest, refs, data = w.Prog.Nest, w.Prog.Refs, w.Prog.Data
		case b == fuzzFigure6:
			nest, refs, data = figure6Program(max(1, int64(chunkBytes%64)))
		default:
			nest, refs, data = fuzzProgram(shape, 8+int64(chunkBytes%4096))
		}
		shards := []int{1, 2, 5}[workers%3]
		want := enumerate(nest, refs, data)
		got, err := compute(context.Background(), nest, refs, data, shards)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("%s, %d shards: %d chunks, want %d", nest, shards, len(got), len(want))
		}
		for i := range got {
			if got[i].Tag.Len() != want[i].Tag.Len() || !slices.Equal(got[i].Tag.Bits(), want[i].Tag.Bits()) || !got[i].Iters.Equal(want[i].Iters) {
				t.Fatalf("%s, %d shards: chunk %d is %v %v, want %v %v", nest, shards, i, got[i].Tag.Bits(), got[i].Iters, want[i].Tag.Bits(), want[i].Iters)
			}
		}
	})
}
