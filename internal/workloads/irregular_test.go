package workloads

import (
	"context"

	"testing"

	"repro/internal/hierarchy"
	"repro/internal/iosim"
	"repro/internal/pipeline"
	"repro/internal/tags"
)

func TestIrregularBuilds(t *testing.T) {
	w := Irregular(1, 7)
	if err := w.Prog.Validate(); err != nil {
		t.Fatal(err)
	}
	if w.Prog.Nest.Size() < 1000 {
		t.Fatalf("only %d iterations", w.Prog.Nest.Size())
	}
	// Two of the three references must be indirect.
	indirect := 0
	for _, r := range w.Prog.Refs {
		if !r.IsAffine() {
			indirect++
		}
	}
	if indirect != 2 {
		t.Fatalf("indirect refs = %d, want 2", indirect)
	}
}

func TestIrregularDeterministic(t *testing.T) {
	a := Irregular(1, 7)
	b := Irregular(1, 7)
	ca := tags.Compute(a.Prog.Nest, a.Prog.Refs, a.Prog.Data)
	cb := tags.Compute(b.Prog.Nest, b.Prog.Refs, b.Prog.Data)
	if len(ca) != len(cb) {
		t.Fatalf("chunk counts differ: %d vs %d", len(ca), len(cb))
	}
	for i := range ca {
		if ca[i].Tag.String() != cb[i].Tag.String() {
			t.Fatalf("chunk %d tags differ across builds", i)
		}
	}
	// A different seed yields a different mesh.
	c := Irregular(1, 8)
	cc := tags.Compute(c.Prog.Nest, c.Prog.Refs, c.Prog.Data)
	same := len(cc) == len(ca)
	if same {
		for i := range ca {
			if ca[i].Tag.String() != cc[i].Tag.String() {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical meshes")
	}
}

func TestIrregularTagsSeeTrueFootprint(t *testing.T) {
	w := Irregular(2, 7)
	chunks := tags.Compute(w.Prog.Nest, w.Prog.Refs, w.Prog.Data)
	if tags.TotalIterations(chunks) != w.Prog.Nest.Size() {
		t.Fatal("tags do not cover all iterations")
	}
	// Long-range edges must produce some tags touching non-adjacent X
	// chunks (bit distance > 4).
	longRange := false
	for _, c := range chunks {
		bits := c.Tag.Bits()
		for i := 1; i < len(bits); i++ {
			if bits[i]-bits[i-1] > 8 && int(bits[i]) < w.Prog.Data.ChunkBase(1) {
				longRange = true
			}
		}
	}
	if !longRange {
		t.Fatal("mesh has no long-range edges in any tag")
	}
}

func TestIrregularMapsAndRuns(t *testing.T) {
	w := Irregular(2, 7)
	tree := hierarchy.NewLayered(
		hierarchy.LayerSpec{Count: 2, CacheChunks: 16, Label: "SN"},
		hierarchy.LayerSpec{Count: 4, CacheChunks: 8, Label: "IO"},
		hierarchy.LayerSpec{Count: 8, CacheChunks: 4, Label: "CN"},
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
