package tags

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/bitvec"
	"repro/internal/chunking"
	"repro/internal/itset"
	"repro/internal/join"
	"repro/internal/polyhedral"
)

// figure6Program reproduces the paper's Figure 6 code fragment with chunk
// size d (in elements, 1-byte elements): array A[12d], loop i = 0..8d−1,
// body A[i] = A[i%d] + A[i+4d] + A[i+2d].
func figure6Program(d int64) (*polyhedral.Nest, []polyhedral.Ref, *chunking.DataSpace) {
	m := 12 * d
	nest := polyhedral.NewNest("fig6", []int64{0}, []int64{8*d - 1})
	data := chunking.NewDataSpace(d, chunking.Array{Name: "A", Dims: []int64{m}, ElemSize: 1})
	refs := []polyhedral.Ref{
		polyhedral.SimpleRef(0, 1, []int{0}, []int64{0}, polyhedral.Write),    // A[i]
		{Array: 0, Exprs: []polyhedral.RefExpr{{Coeffs: []int64{1}, Mod: d}}}, // A[i % d]
		polyhedral.SimpleRef(0, 1, []int{0}, []int64{4 * d}, polyhedral.Read), // A[i+4d]
		polyhedral.SimpleRef(0, 1, []int{0}, []int64{2 * d}, polyhedral.Read), // A[i+2d]
	}
	return nest, refs, data
}

// Figure 8's expected tags for the Figure 6 fragment.
var figure8Tags = []string{
	"101010000000",
	"110101000000",
	"101010100000",
	"100101010000",
	"100010101000",
	"100001010100",
	"100000101010",
	"100000010101",
}

func TestFigure6IterationChunks(t *testing.T) {
	const d = 8
	nest, refs, data := figure6Program(d)
	if data.NumChunks() != 12 {
		t.Fatalf("NumChunks = %d, want 12", data.NumChunks())
	}
	chunks := Compute(nest, refs, data)
	if len(chunks) != 8 {
		t.Fatalf("got %d iteration chunks, want 8", len(chunks))
	}
	for i, want := range figure8Tags {
		if got := chunks[i].Tag.String(); got != want {
			t.Errorf("γ%d tag = %s, want %s", i+1, got, want)
		}
		if chunks[i].Count() != d {
			t.Errorf("γ%d count = %d, want %d", i+1, chunks[i].Count(), d)
		}
		// γ_{i+1} covers iterations [i·d, (i+1)·d).
		if chunks[i].Iters.Min() != int64(i)*d || chunks[i].Iters.Max() != int64(i+1)*d-1 {
			t.Errorf("γ%d iteration range = %s", i+1, chunks[i].Iters)
		}
	}
}

func TestFigure8GraphWeights(t *testing.T) {
	nest, refs, data := figure6Program(8)
	chunks := Compute(nest, refs, data)
	// The similarity graph's edge weight is ω(γi,γj) = popcount(Λi ∧ Λj).
	weight := func(i, j int) int { return chunks[i].Tag.AndPopCount(chunks[j].Tag.Dense()) }
	// Figure 8 shows ω(γ1,γ3)=3, ω(γ3,γ5)=3, ω(γ5,γ7)=3, ω(γ1,γ5)=2,
	// ω(γ3,γ7)=2 (0-indexed: 0,2,4,6).
	cases := []struct{ i, j, w int }{
		{0, 2, 3}, {2, 4, 3}, {4, 6, 3}, {0, 4, 2}, {2, 6, 2},
		{1, 3, 3}, {3, 5, 3}, {5, 7, 3}, {1, 5, 2}, {3, 7, 2},
		// Odd/even chunks share only data chunk 0 (via A[i%d]).
		{0, 1, 1}, {0, 7, 1},
	}
	for _, c := range cases {
		if got := weight(c.i, c.j); got != c.w {
			t.Errorf("ω(γ%d,γ%d) = %d, want %d", c.i+1, c.j+1, got, c.w)
		}
		if weight(c.j, c.i) != weight(c.i, c.j) {
			t.Errorf("graph weight not symmetric at (%d,%d)", c.i, c.j)
		}
	}
}

func TestGraphMatrixAndDegree(t *testing.T) {
	nest, refs, data := figure6Program(8)
	chunks := Compute(nest, refs, data)
	if len(chunks) != 8 {
		t.Fatalf("graph has %d nodes, want 8", len(chunks))
	}
	// The matrix diagonal ω(γ1,γ1) is γ1's popcount: it accesses 3 data chunks.
	if w := chunks[0].Tag.AndPopCount(chunks[0].Tag.Dense()); w != 3 || chunks[0].Tag.PopCount() != 3 {
		t.Fatalf("diagonal = %d, want popcount 3", w)
	}
	// Every chunk shares chunk 0, so the graph is complete: every node has
	// degree 7.
	for i := range chunks {
		degree := 0
		for j := range chunks {
			if j != i && chunks[i].Tag.AndPopCount(chunks[j].Tag.Dense()) > 0 {
				degree++
			}
		}
		if degree != 7 {
			t.Fatalf("degree(γ%d) = %d, want 7", i+1, degree)
		}
	}
}

func TestComputeCoversAllIterations(t *testing.T) {
	nest, refs, data := figure6Program(8)
	chunks := Compute(nest, refs, data)
	if TotalIterations(chunks) != nest.Size() {
		t.Fatalf("chunks cover %d of %d iterations", TotalIterations(chunks), nest.Size())
	}
	// Chunks must be pairwise disjoint.
	for i := range chunks {
		for j := i + 1; j < len(chunks); j++ {
			if !chunks[i].Iters.Intersect(chunks[j].Iters).IsEmpty() {
				t.Fatalf("chunks %d and %d overlap", i, j)
			}
		}
	}
}

func TestComputeRespectsGuards(t *testing.T) {
	// Triangular 2-D nest: guarded-out iterations get no tag.
	nest := polyhedral.NewNest("tri", []int64{0, 0}, []int64{7, 7}).
		AddGuard([]int64{1, -1}, 0) // j <= i
	data := chunking.NewDataSpace(16, chunking.Array{Name: "A", Dims: []int64{8, 8}, ElemSize: 4})
	refs := []polyhedral.Ref{polyhedral.SimpleRef(0, 2, []int{0, 1}, []int64{0, 0}, polyhedral.Read)}
	chunks := Compute(nest, refs, data)
	if TotalIterations(chunks) != nest.Size() {
		t.Fatalf("cover %d, want %d", TotalIterations(chunks), nest.Size())
	}
}

func TestComputeMultiArray(t *testing.T) {
	// Two arrays; reference to B must set bits in B's chunk range only.
	nest := polyhedral.NewNest("two", []int64{0}, []int64{15})
	data := chunking.NewDataSpace(32,
		chunking.Array{Name: "A", Dims: []int64{16}, ElemSize: 8}, // chunks 0-3
		chunking.Array{Name: "B", Dims: []int64{16}, ElemSize: 8}, // chunks 4-7
	)
	refs := []polyhedral.Ref{
		polyhedral.SimpleRef(0, 1, []int{0}, []int64{0}, polyhedral.Read),
		polyhedral.SimpleRef(1, 1, []int{0}, []int64{0}, polyhedral.Read),
	}
	chunks := Compute(nest, refs, data)
	if len(chunks) != 4 {
		t.Fatalf("got %d chunks, want 4", len(chunks))
	}
	want0 := bitvec.FromIndices(8, 0, 4)
	if !chunks[0].Tag.Dense().Equal(want0) {
		t.Fatalf("chunk 0 tag = %s", chunks[0].Tag)
	}
}

func TestComputeDuplicateRefsDedup(t *testing.T) {
	// Two references to the same chunk yield a single tag bit.
	nest := polyhedral.NewNest("dup", []int64{0}, []int64{3})
	data := chunking.NewDataSpace(64, chunking.Array{Name: "A", Dims: []int64{4}, ElemSize: 8})
	refs := []polyhedral.Ref{
		polyhedral.SimpleRef(0, 1, []int{0}, []int64{0}, polyhedral.Read),
		polyhedral.SimpleRef(0, 1, []int{0}, []int64{1}, polyhedral.Read),
	}
	chunks := Compute(nest, refs, data)
	if len(chunks) != 1 {
		t.Fatalf("got %d chunks", len(chunks))
	}
	if chunks[0].Tag.PopCount() != 1 {
		t.Fatalf("tag popcount = %d, want 1", chunks[0].Tag.PopCount())
	}
}

func TestSplitPreservesTagAndCount(t *testing.T) {
	nest, refs, data := figure6Program(8)
	chunks := Compute(nest, refs, data)
	a, b := chunks[0].Split(3)
	if a.Count() != 3 || b.Count() != 5 {
		t.Fatalf("split counts %d/%d", a.Count(), b.Count())
	}
	if a.Tag.String() != chunks[0].Tag.String() || b.Tag.String() != chunks[0].Tag.String() {
		t.Fatal("split changed tags")
	}
}

func TestComputePanicsOnBadInput(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("nil nest did not panic")
		}
	}()
	Compute(nil, nil, nil)
}

// Property: for random strided scans, chunks partition the iteration space
// exactly, every tag is non-empty, and tags are pairwise distinct.
func TestPropertyChunksPartition(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := int64(16 + r.Intn(200))
		stride := int64(1 + r.Intn(4))
		off := int64(r.Intn(10))
		nest := polyhedral.NewNest("p", []int64{0}, []int64{n - 1})
		data := chunking.NewDataSpace(int64(8+8*r.Intn(8)),
			chunking.Array{Name: "A", Dims: []int64{n*stride + off + 1}, ElemSize: 4})
		refs := []polyhedral.Ref{
			{Array: 0, Exprs: []polyhedral.RefExpr{{Coeffs: []int64{stride}, Offset: off}}},
		}
		chunks := Compute(nest, refs, data)
		if TotalIterations(chunks) != n {
			return false
		}
		seen := map[string]bool{}
		for _, c := range chunks {
			if c.Tag.PopCount() == 0 {
				return false
			}
			k := c.Tag.String()
			if seen[k] {
				return false
			}
			seen[k] = true
		}
		for i := range chunks {
			for j := i + 1; j < len(chunks); j++ {
				if !chunks[i].Iters.Intersect(chunks[j].Iters).IsEmpty() {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestComputeCtxDeterministicAcrossWorkers(t *testing.T) {
	nest := polyhedral.NewNest("par", []int64{0, 0}, []int64{63, 63}).AddGuard([]int64{1, -1}, 40)
	data := chunking.NewDataSpace(128,
		chunking.Array{Name: "A", Dims: []int64{64, 64}, ElemSize: 8},
		chunking.Array{Name: "B", Dims: []int64{64, 64}, ElemSize: 8},
	)
	refs := []polyhedral.Ref{
		polyhedral.SimpleRef(0, 2, []int{0, 1}, []int64{0, 0}, polyhedral.Read),
		polyhedral.SimpleRef(1, 2, []int{1, 0}, []int64{0, 0}, polyhedral.Read),
		polyhedral.SimpleRef(0, 2, []int{0, 1}, []int64{1, 1}, polyhedral.Write),
	}
	want := Compute(nest, refs, data)
	for _, workers := range []int{2, 3, 4, 9} {
		got, err := ComputeCtx(context.Background(), nest, refs, data, workers)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d chunks, want %d", workers, len(got), len(want))
		}
		for i := range got {
			if got[i].Tag.String() != want[i].Tag.String() || !got[i].Iters.Equal(want[i].Iters) {
				t.Fatalf("workers=%d: chunk %d differs: %v vs %v", workers, i, got[i], want[i])
			}
		}
	}
}

func TestComputeCtxCanceled(t *testing.T) {
	nest := polyhedral.NewNest("big", []int64{0, 0}, []int64{255, 255})
	data := chunking.NewDataSpace(64, chunking.Array{Name: "A", Dims: []int64{256, 256}, ElemSize: 8})
	refs := []polyhedral.Ref{
		polyhedral.SimpleRef(0, 2, []int{0, 1}, []int64{0, 0}, polyhedral.Read),
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ComputeCtx(ctx, nest, refs, data, 2); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// heldPanicCtx is a context whose Err panics: the first call at once, the
// second only after holding on until the test has recovered or a while has
// passed. It records whether the test recovered while the second call was
// still held.
type heldPanicCtx struct {
	context.Context
	value     any
	calls     atomic.Int32
	recovered chan struct{} // closed by the test once it has recovered
	left      chan struct{} // closed when the held call panics
	early     bool          // the test recovered while the call was held
}

func (c *heldPanicCtx) Err() error {
	if c.calls.Add(1) == 2 {
		defer close(c.left)
		select {
		case <-c.recovered:
			c.early = true
		case <-time.After(250 * time.Millisecond):
		}
	}
	panic(c.value)
}

// TestComputeCtxShardPanic panics inside both shards of a two-worker
// tagging, one shard only after a hold: the panic must reach the caller's
// recover with its original value, instead of killing the process from a
// shard goroutine, and only once every shard has returned.
func TestComputeCtxShardPanic(t *testing.T) {
	type boom struct{ msg string }
	ctx := &heldPanicCtx{
		Context:   context.Background(),
		value:     &boom{"tag shard"},
		recovered: make(chan struct{}),
		left:      make(chan struct{}),
	}
	nest := polyhedral.NewNest("big", []int64{0, 0}, []int64{63, 255})
	data := chunking.NewDataSpace(64, chunking.Array{Name: "A", Dims: []int64{64, 256}, ElemSize: 8})
	refs := []polyhedral.Ref{polyhedral.SimpleRef(0, 2, []int{0, 1}, []int64{0, 0}, polyhedral.Read)}
	var got any
	func() {
		defer func() { got = recover() }()
		_, err := ComputeCtx(ctx, nest, refs, data, 2)
		t.Errorf("ComputeCtx returned (err %v) instead of panicking", err)
	}()
	close(ctx.recovered)
	<-ctx.left
	if jp, ok := got.(*join.Panic); !ok || jp.Value != ctx.value {
		t.Fatalf("recovered %v, want a *join.Panic of the shard's panic value %v", got, ctx.value)
	} else if !strings.Contains(string(jp.Stack), "(*heldPanicCtx).Err") {
		t.Fatalf("the panic's stack does not name the panicking shard:\n%s", jp.Stack)
	}
	if ctx.early {
		t.Fatal("the panic was re-raised while a shard goroutine was still running")
	}
}

func TestGraphPostingsAndDensity(t *testing.T) {
	chunks := []*IterationChunk{
		{Tag: bitvec.NewSparse(4, []int32{0, 2}), Iters: itset.Interval(0, 2)},
		{Tag: bitvec.NewSparse(4, []int32{2, 3}), Iters: itset.Interval(2, 4)},
		{Tag: bitvec.NewSparse(4, []int32{2}), Iters: itset.Interval(4, 6)},
	}
	rows := make([][]int32, len(chunks))
	for i, c := range chunks {
		rows[i] = c.Tag.Bits()
	}
	var ix bitvec.PostingIndex
	ix.Build(4, rows)
	posts := make([][]int32, 4)
	for b := range posts {
		posts[b] = ix.List(int32(b))
	}
	want := [][]int32{{0}, nil, {0, 1, 2}, {1}}
	for b := range want {
		if len(posts[b]) != len(want[b]) {
			t.Fatalf("postings[%d] = %v, want %v", b, posts[b], want[b])
		}
		for k := range want[b] {
			if posts[b][k] != want[b][k] {
				t.Fatalf("postings[%d] = %v, want %v", b, posts[b], want[b])
			}
		}
	}
	// Postings must agree with the dense weights: chunks co-listed under
	// some data chunk iff ω > 0.
	coListed := make(map[[2]int]bool)
	for _, list := range posts {
		for x := range list {
			for y := x + 1; y < len(list); y++ {
				coListed[[2]int{int(list[x]), int(list[y])}] = true
			}
		}
	}
	for i := 0; i < len(chunks); i++ {
		for j := i + 1; j < len(chunks); j++ {
			if w := chunks[i].Tag.AndPopCount(chunks[j].Tag.Dense()); (w > 0) != coListed[[2]int{i, j}] {
				t.Fatalf("postings disagree with ω(%d,%d)=%d", i, j, w)
			}
		}
	}
}

// checkTagBits verifies that every chunk's tag is its set-bit list: r bits
// wide, ascending, inside [0, r), and exactly the distinct data chunks each
// of its iterations touches.
func checkTagBits(t *testing.T, nest *polyhedral.Nest, refs []polyhedral.Ref, data *chunking.DataSpace, chunks []*IterationChunk) {
	t.Helper()
	r := data.NumChunks()
	owner := make(map[int64]*IterationChunk)
	for _, c := range chunks {
		if c.Tag.Len() != r {
			t.Fatalf("%v: tag width %d, want %d", c, c.Tag.Len(), r)
		}
		bits := c.Tag.Bits()
		for i, b := range bits {
			if b < 0 || int(b) >= r || i > 0 && bits[i-1] >= b {
				t.Fatalf("%v: bits %v not ascending inside [0,%d)", c, bits, r)
			}
		}
		c.Iters.ForEach(func(idx int64) bool { owner[idx] = c; return true })
	}
	subs := make([]int64, 8)
	nest.ForEach(func(it []int64) bool {
		idx := nest.IterToIndex(it)
		c := owner[idx]
		if c == nil {
			t.Fatalf("iteration %d is in no chunk", idx)
		}
		touched := make(map[int32]bool)
		for _, ref := range refs {
			touched[int32(data.ChunkOf(ref.Array, ref.Eval(it, subs[:len(ref.Exprs)])))] = true
		}
		bits := c.Tag.Bits()
		if len(bits) != len(touched) {
			t.Fatalf("iteration %d touches %d data chunks; its chunk's tag %v has %d", idx, len(touched), bits, len(bits))
		}
		for _, b := range bits {
			if !touched[b] {
				t.Fatalf("iteration %d does not touch data chunk %d of its tag %v", idx, b, bits)
			}
		}
		return true
	})
}

// Property: on the Figure 6 program and on random nests, at 1 and 4
// workers, each chunk's tag is the set of data chunks its iterations touch.
func TestPropertyTagBitsAreTouchedChunks(t *testing.T) {
	type program struct {
		nest *polyhedral.Nest
		refs []polyhedral.Ref
		data *chunking.DataSpace
	}
	nest, refs, data := figure6Program(8)
	progs := []program{{nest, refs, data}}
	rr := rand.New(rand.NewSource(7))
	for range 12 {
		// Up to 20k iterations, so that 4 workers tag several shards.
		n0, n1 := int64(4+rr.Intn(200)), int64(1+rr.Intn(100))
		nest := polyhedral.NewNest("rand", []int64{0, 0}, []int64{n0 - 1, n1 - 1})
		if rr.Intn(2) == 0 {
			nest.AddGuard([]int64{1, -1}, int64(rr.Intn(20)))
		}
		var arrays []chunking.Array
		var refs []polyhedral.Ref
		for a := range 1 + rr.Intn(2) {
			s0, s1 := int64(1+rr.Intn(3)), int64(rr.Intn(3))
			off := int64(rr.Intn(16))
			arrays = append(arrays, chunking.Array{Name: fmt.Sprint("A", a), Dims: []int64{s0*n0 + s1*n1 + off + 1}, ElemSize: 8})
			for range 1 + rr.Intn(3) {
				refs = append(refs, polyhedral.Ref{Array: a, Exprs: []polyhedral.RefExpr{{Coeffs: []int64{s0, s1}, Offset: int64(rr.Intn(int(off) + 1))}}})
			}
		}
		data := chunking.NewDataSpace(int64(8*(1+rr.Intn(8))), arrays...)
		progs = append(progs, program{nest, refs, data})
	}
	for _, p := range progs {
		for _, workers := range []int{1, 4} {
			chunks, err := ComputeCtx(context.Background(), p.nest, p.refs, p.data, workers)
			if err != nil {
				t.Fatal(err)
			}
			checkTagBits(t, p.nest, p.refs, p.data, chunks)
		}
	}
}
