package cachemap

import (
	"os"
	"path/filepath"
	"testing"
)

// demoProgram is a small multi-pass scan with a shared window used across
// the public API tests.
func demoProgram() Program {
	nest := NewNest("demo", []int64{0, 0}, []int64{3, 255})
	data := NewDataSpace(256,
		Array{Name: "A", Dims: []int64{288}, ElemSize: 64},
		Array{Name: "B", Dims: []int64{4, 256}, ElemSize: 64},
	)
	refs := []Ref{
		SimpleRef(0, 2, []int{1}, []int64{0}, Read),
		SimpleRef(0, 2, []int{1}, []int64{16}, Read),
		SimpleRef(1, 2, []int{0, 1}, []int64{0, 0}, Write),
	}
	return Program{Nest: nest, Refs: refs, Data: data}
}

func TestPublicEndToEnd(t *testing.T) {
	tree := NewHierarchy(4, 2, 1, 16)
	prog := demoProgram()
	for _, scheme := range Schemes() {
		m, err := MapAndSimulate(scheme, prog, tree, DefaultSimParams())
		if err != nil {
			t.Fatalf("%s: %v", scheme, err)
		}
		if m.Iterations != prog.Nest.Size() {
			t.Fatalf("%s executed %d of %d iterations", scheme, m.Iterations, prog.Nest.Size())
		}
	}
}

func TestPublicPipelinePieces(t *testing.T) {
	tree := NewHierarchy(4, 2, 1, 16)
	prog := demoProgram()
	chunks := ComputeIterationChunks(prog.Nest, prog.Refs, prog.Data)
	if len(chunks) == 0 {
		t.Fatal("no iteration chunks")
	}
	assign, err := Distribute(chunks, tree, DefaultDistributeOptions())
	if err != nil {
		t.Fatal(err)
	}
	sched, err := Schedule(assign, tree, DefaultScheduleOptions())
	if err != nil {
		t.Fatal(err)
	}
	var asg Assignment = make(Assignment, tree.NumClients())
	for ci, cl := range sched {
		for _, c := range cl {
			asg[ci] = append(asg[ci], Block{Set: c.Iters})
		}
	}
	m, err := Simulate(tree, prog, asg, DefaultSimParams())
	if err != nil {
		t.Fatal(err)
	}
	if m.Iterations != prog.Nest.Size() {
		t.Fatalf("executed %d iterations", m.Iterations)
	}
}

func TestPublicDependences(t *testing.T) {
	nest := NewNest("dep", []int64{1}, []int64{63})
	refs := []Ref{
		SimpleRef(0, 1, []int{0}, []int64{0}, Write),
		SimpleRef(0, 1, []int{0}, []int64{-1}, Read),
	}
	deps := AnalyzeDependences(nest, refs)
	if len(deps) != 1 || deps[0].Carried() != 0 {
		t.Fatalf("deps = %v", deps)
	}
}

func TestPublicCustomHierarchy(t *testing.T) {
	root := &HierarchyNode{Label: "SN", CacheChunks: 32, Children: []*HierarchyNode{
		{Label: "IO0", CacheChunks: 16, Children: []*HierarchyNode{
			{Label: "c0", CacheChunks: 8}, {Label: "c1", CacheChunks: 8},
		}},
		{Label: "IO1", CacheChunks: 16, Children: []*HierarchyNode{
			{Label: "c2", CacheChunks: 8},
		}},
	}}
	tree := BuildHierarchy(root)
	if tree.NumClients() != 3 {
		t.Fatalf("NumClients = %d", tree.NumClients())
	}
	m, err := MapAndSimulate(InterProcessor, demoProgram(), tree, DefaultSimParams())
	if err != nil {
		t.Fatal(err)
	}
	if m.Iterations == 0 {
		t.Fatal("nothing executed")
	}
}

func TestPublicMultiNest(t *testing.T) {
	data := NewDataSpace(256, Array{Name: "A", Dims: []int64{256}, ElemSize: 64})
	mk := func(name string, off int64) Program {
		return Program{
			Nest: NewNest(name, []int64{0}, []int64{191}),
			Refs: []Ref{SimpleRef(0, 1, []int{0}, []int64{off}, Read)},
			Data: data,
		}
	}
	progs := []Program{mk("n0", 0), mk("n1", 32)}
	tree := NewHierarchy(4, 2, 1, 16)
	asgs, err := MapMulti(InterProcessor, progs, Config{Tree: tree})
	if err != nil {
		t.Fatal(err)
	}
	m, err := SimulateSequence(tree, progs, asgs, DefaultSimParams())
	if err != nil {
		t.Fatal(err)
	}
	if m.Iterations != 384 {
		t.Fatalf("Iterations = %d", m.Iterations)
	}
}

func TestPublicAffineRefMatchesPaperNotation(t *testing.T) {
	r := AffineRef(0, [][]int64{{1, 0}, {0, 1}}, []int64{3, -1}, Read)
	got := r.Eval([]int64{1, 2}, nil)
	if got[0] != 4 || got[1] != 1 {
		t.Fatalf("Eval = %v", got)
	}
}

// The inter-processor mapping should beat the original on this
// sharing-heavy demo.
func TestPublicInterImproves(t *testing.T) {
	prog := demoProgram()
	p := DefaultSimParams()
	orig, err := MapAndSimulate(Original, prog, NewHierarchy(8, 4, 2, 8), p)
	if err != nil {
		t.Fatal(err)
	}
	inter, err := MapAndSimulate(InterProcessor, prog, NewHierarchy(8, 4, 2, 8), p)
	if err != nil {
		t.Fatal(err)
	}
	if inter.DiskReads > orig.DiskReads {
		t.Fatalf("inter disk reads %d > original %d", inter.DiskReads, orig.DiskReads)
	}
}

func TestPublicWorkloads(t *testing.T) {
	if len(WorkloadNames()) != 8 {
		t.Fatalf("WorkloadNames = %v", WorkloadNames())
	}
	w, err := GetWorkload("apsi", 2)
	if err != nil {
		t.Fatal(err)
	}
	if w.Prog.Validate() != nil {
		t.Fatal("invalid workload program")
	}
	ir := IrregularWorkload(2, 3)
	if ir.Prog.Validate() != nil {
		t.Fatal("invalid irregular program")
	}
	syn, err := Synthesize(SynthSpec{Name: "x", Passes: 2, Extent: 64,
		Streams: []StreamSpec{{Stride: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	m, err := MapAndSimulate(InterProcessor, syn.Prog, NewHierarchy(4, 2, 1, 16), DefaultSimParams())
	if err != nil {
		t.Fatal(err)
	}
	if m.Iterations != 128 {
		t.Fatalf("Iterations = %d", m.Iterations)
	}
}

func TestPublicParseHierarchy(t *testing.T) {
	tr, err := ParseHierarchy("2/4/8@16,8,4")
	if err != nil {
		t.Fatal(err)
	}
	if tr.NumClients() != 8 {
		t.Fatalf("NumClients = %d", tr.NumClients())
	}
	if _, err := ParseHierarchy("bogus"); err == nil {
		t.Fatal("bogus spec accepted")
	}
}

func TestPublicIndirectRef(t *testing.T) {
	table := []int64{5, 3, 9}
	r := IndirectRef(0, []int64{1}, 0, table, Read)
	if got := r.Eval([]int64{1}, nil); got[0] != 3 {
		t.Fatalf("Eval = %v", got)
	}
	if r.IsAffine() {
		t.Fatal("indirect ref reported affine")
	}
}

// newTestService builds a Service from cfg, failing tb on error.
func newTestService(tb testing.TB, cfg ServiceConfig) *Service {
	tb.Helper()
	svc, err := NewService(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return svc
}

// TestNewServiceRejectsUnusableStoreDir: a plan store directory that
// cannot exist (its parent is a regular file) is an error from NewService,
// not a panic.
func TestNewServiceRejectsUnusableStoreDir(t *testing.T) {
	file := filepath.Join(t.TempDir(), "regular-file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	var cfg ServiceConfig
	cfg.Store.Dir = filepath.Join(file, "plans")
	svc, err := NewService(cfg)
	if err == nil || svc != nil {
		t.Fatalf("NewService with a store dir under a regular file = %v, %v; want an error", svc, err)
	}
}
