package workloads

import (
	"context"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/hierarchy"
	"repro/internal/iosim"
	"repro/internal/pipeline"
	"repro/internal/polyhedral"
	"repro/internal/tags"
)

func TestSynthesizeBasic(t *testing.T) {
	w, err := Synthesize(SynthSpec{
		Name:    "s",
		Passes:  3,
		Extent:  256,
		Streams: []StreamSpec{{Stride: 1}, {Stride: 1, Offset: 16}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Prog.Validate(); err != nil {
		t.Fatal(err)
	}
	if w.Prog.Nest.Size() != 768 {
		t.Fatalf("Size = %d", w.Prog.Nest.Size())
	}
	// In-place output by default: two arrays (In, Out).
	if len(w.Prog.Data.Arrays) != 2 {
		t.Fatalf("arrays = %d", len(w.Prog.Data.Arrays))
	}
}

func TestSynthesizeHotTable(t *testing.T) {
	w, err := Synthesize(SynthSpec{
		Name: "hot", Passes: 2, Extent: 64,
		Streams: []StreamSpec{{Stride: 1}}, HotTable: 32,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Prog.Data.Arrays) != 3 || w.Prog.Data.Arrays[2].Name != "Hot" {
		t.Fatal("hot table array missing")
	}
	// The hot ref must be modular.
	last := w.Prog.Refs[len(w.Prog.Refs)-1]
	if last.Exprs[0].Mod != 32 {
		t.Fatalf("hot ref mod = %d", last.Exprs[0].Mod)
	}
}

func TestSynthesizePerPassOut(t *testing.T) {
	w, err := Synthesize(SynthSpec{
		Name: "pp", Passes: 4, Extent: 64,
		Streams: []StreamSpec{{Stride: 1}}, PerPassOut: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Prog.Data.Arrays[1].Dims) != 2 {
		t.Fatal("per-pass output should be 2-D")
	}
	// Per-pass output leaves the nest dependence-free in t: the intra
	// baseline may tile it. In-place output must carry a self dependence.
	w2, _ := Synthesize(SynthSpec{
		Name: "ip", Passes: 4, Extent: 64,
		Streams: []StreamSpec{{Stride: 1}},
	})
	if len(w2.Prog.Data.Arrays[1].Dims) != 1 {
		t.Fatal("in-place output should be 1-D")
	}
}

func TestSynthesizeInputSizing(t *testing.T) {
	// Stride 2, offset 10, drift 8 over 3 passes, 100 iterations:
	// max subscript = 2*99 + 10 + 8*2 = 224.
	w, err := Synthesize(SynthSpec{
		Name: "sz", Passes: 3, Extent: 100,
		Streams: []StreamSpec{{Stride: 2, Offset: 10, Drift: 8}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := w.Prog.Data.Arrays[0].Dims[0]; got != 225 {
		t.Fatalf("input dim = %d, want 225", got)
	}
}

func TestSynthesizeValidation(t *testing.T) {
	bad := []SynthSpec{
		{Name: "a", Passes: 0, Extent: 1, Streams: []StreamSpec{{Stride: 1}}},
		{Name: "b", Passes: 1, Extent: 0, Streams: []StreamSpec{{Stride: 1}}},
		{Name: "c", Passes: 1, Extent: 1},
		{Name: "d", Passes: 1, Extent: 1, Streams: []StreamSpec{{Stride: 0}}},
		{Name: "e", Passes: 1, Extent: 1, Streams: []StreamSpec{{Stride: 1, Offset: -1}}},
		{Name: "f", Passes: 1, Extent: 1, Streams: []StreamSpec{{Stride: 1}}, ElemBytes: -8},
		{Name: "g", Passes: 1, Extent: 1, Streams: []StreamSpec{{Stride: 1}}, ChunkBytes: -8},
	}
	for _, spec := range bad {
		if _, err := Synthesize(spec); err == nil {
			t.Errorf("spec %q accepted", spec.Name)
		}
	}
}

// TestSynthesizeSubscriptOverflow: a stream whose largest subscript,
// Stride·(Extent−1) + Offset + Drift·(Passes−1), overflows int64 through
// its stride, offset, drift or their sum is rejected. A wrapped subscript
// once sized the input array to one element.
func TestSynthesizeSubscriptOverflow(t *testing.T) {
	const big = 1 << 62
	for _, tc := range []struct {
		name   string
		stream StreamSpec
	}{
		{"stride", StreamSpec{Stride: big}},
		{"stride product", StreamSpec{Stride: math.MaxInt64}},
		{"offset", StreamSpec{Stride: 1, Offset: math.MaxInt64 - 3}},
		{"drift", StreamSpec{Stride: 1, Drift: big}},
		{"sum", StreamSpec{Stride: 1, Offset: big, Drift: big / 2}},
	} {
		_, err := Synthesize(SynthSpec{Name: tc.name, Passes: 3, Extent: 4, ElemBytes: 1,
			Streams: []StreamSpec{{Stride: 1}, tc.stream}})
		if err == nil || !strings.Contains(err.Error(), "subscript overflows int64") {
			t.Errorf("%s: err %v, want a subscript overflow", tc.name, err)
		}
	}
	// The largest subscript whose array size still fits.
	w, err := Synthesize(SynthSpec{Name: "edge", Passes: 3, Extent: 4, ElemBytes: 1,
		Streams: []StreamSpec{{Stride: 1, Offset: math.MaxInt64 - 4}}})
	if err != nil {
		t.Fatal(err)
	}
	if got := w.Prog.Data.Arrays[0].Dims[0]; got != math.MaxInt64 {
		t.Fatalf("input dim = %d, want MaxInt64", got)
	}
}

// Property: every valid synthetic workload validates, its tags cover the
// iteration space, and it maps+runs end to end under every scheme.
func TestPropertySynthesizedWorkloadsRun(t *testing.T) {
	tree := hierarchy.NewLayered(
		hierarchy.LayerSpec{Count: 2, CacheChunks: 16, Label: "SN"},
		hierarchy.LayerSpec{Count: 4, CacheChunks: 8, Label: "IO"},
		hierarchy.LayerSpec{Count: 8, CacheChunks: 4, Label: "CN"},
	)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		spec := SynthSpec{
			Name:       "prop",
			Passes:     1 + int64(r.Intn(3)),
			Extent:     int64(64 + 8*r.Intn(16)),
			PerPassOut: r.Intn(2) == 0,
		}
		for j := 0; j < 1+r.Intn(3); j++ {
			spec.Streams = append(spec.Streams, StreamSpec{
				Stride: 1 + int64(r.Intn(2)),
				Offset: int64(8 * r.Intn(5)),
				Drift:  int64(8 * r.Intn(2)),
			})
		}
		if r.Intn(2) == 0 {
			spec.HotTable = 16
		}
		w, err := Synthesize(spec)
		if err != nil {
			return false
		}
		chunks := tags.Compute(w.Prog.Nest, w.Prog.Refs, w.Prog.Data)
		if tags.TotalIterations(chunks) != w.Prog.Nest.Size() {
			return false
		}
		scheme := pipeline.Schemes()[r.Intn(4)]
		res, err := pipeline.Map(context.Background(), scheme, w.Prog, pipeline.Config{Tree: tree})
		if err != nil {
			return false
		}
		m, err := iosim.Run(tree, w.Prog, res.Assignment, iosim.DefaultParams())
		return err == nil && m.Iterations == w.Prog.Nest.Size()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestSynthesizeStencilBasic(t *testing.T) {
	w, err := SynthesizeStencil(StencilSpec{
		Name: "st", Passes: 2, Rows: 16, Cols: 16,
		Offsets: [][2]int64{{-1, 0}, {1, 0}, {0, -1}, {0, 1}},
		InPlace: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Prog.Validate(); err != nil {
		t.Fatal(err)
	}
	// Interior: (16-2)x(16-2) per pass.
	if w.Prog.Nest.Size() != 2*14*14 {
		t.Fatalf("Size = %d", w.Prog.Nest.Size())
	}
	// In-place: one array only.
	if len(w.Prog.Data.Arrays) != 1 {
		t.Fatalf("arrays = %d", len(w.Prog.Data.Arrays))
	}
	// In-place stencil must carry dependences (tiling illegal).
	deps := polyhedral.Analyze(w.Prog.Nest, w.Prog.Refs)
	if len(deps) == 0 {
		t.Fatal("in-place stencil has no dependences")
	}
}

func TestSynthesizeStencilSeparateOutput(t *testing.T) {
	w, err := SynthesizeStencil(StencilSpec{
		Name: "sep", Passes: 2, Rows: 12, Cols: 12,
		Offsets: [][2]int64{{1, 0}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Prog.Data.Arrays) != 2 {
		t.Fatalf("arrays = %d", len(w.Prog.Data.Arrays))
	}
}

func TestSynthesizeStencilValidation(t *testing.T) {
	if _, err := SynthesizeStencil(StencilSpec{Name: "a", Passes: 0, Rows: 8, Cols: 8}); err == nil {
		t.Error("passes 0 accepted")
	}
	if _, err := SynthesizeStencil(StencilSpec{Name: "b", Passes: 1, Rows: 2, Cols: 8}); err == nil {
		t.Error("tiny grid accepted")
	}
	if _, err := SynthesizeStencil(StencilSpec{
		Name: "c", Passes: 1, Rows: 8, Cols: 8, Offsets: [][2]int64{{5, 0}},
	}); err == nil {
		t.Error("out-of-grid offset accepted")
	}
	for _, spec := range []StencilSpec{
		{Name: "d", Passes: 1, Rows: 8, Cols: 8, ElemBytes: -8},
		{Name: "e", Passes: 1, Rows: 8, Cols: 8, ChunkBytes: -8},
	} {
		if _, err := SynthesizeStencil(spec); err == nil {
			t.Errorf("spec %q with a negative size accepted", spec.Name)
		}
	}
}

func TestSynthesizedStencilRunsEndToEnd(t *testing.T) {
	w, err := SynthesizeStencil(StencilSpec{
		Name: "run", Passes: 2, Rows: 16, Cols: 16,
		Offsets: [][2]int64{{-1, 0}, {0, 1}}, InPlace: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	tree := hierarchy.NewLayered(
		hierarchy.LayerSpec{Count: 1, CacheChunks: 16, Label: "SN"},
		hierarchy.LayerSpec{Count: 2, CacheChunks: 8, Label: "IO"},
		hierarchy.LayerSpec{Count: 4, CacheChunks: 4, Label: "CN"},
	)
	for _, s := range pipeline.Schemes() {
		res, err := pipeline.Map(context.Background(), s, w.Prog, pipeline.Config{Tree: tree})
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		m, err := iosim.Run(tree, w.Prog, res.Assignment, iosim.DefaultParams())
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		if m.Iterations != w.Prog.Nest.Size() {
			t.Fatalf("%s executed %d of %d", s, m.Iterations, w.Prog.Nest.Size())
		}
	}
}
