package polyhedral

import "testing"

func nest3() *Nest { return NewNest("t", []int64{0, 0, 0}, []int64{9, 9, 9}) }

func TestAnalyzeFlowDependence(t *testing.T) {
	// A[i] = A[i-1]: write A[i], read A[i-1] -> distance 1 carried by loop 0.
	n := NewNest("t", []int64{0}, []int64{9})
	refs := []Ref{
		SimpleRef(0, 1, []int{0}, []int64{0}, Write),
		SimpleRef(0, 1, []int{0}, []int64{-1}, Read),
	}
	deps := Analyze(n, refs)
	if len(deps) != 1 {
		t.Fatalf("got %d dependences, want 1: %v", len(deps), deps)
	}
	d := deps[0]
	if !d.Known[0] || d.Distance[0] != 1 {
		t.Fatalf("distance = %v", d)
	}
	if d.Carried() != 0 {
		t.Fatalf("Carried = %d", d.Carried())
	}
}

func TestAnalyzeNoDependenceBetweenReads(t *testing.T) {
	n := NewNest("t", []int64{0}, []int64{9})
	refs := []Ref{
		SimpleRef(0, 1, []int{0}, []int64{0}, Read),
		SimpleRef(0, 1, []int{0}, []int64{-1}, Read),
	}
	if deps := Analyze(n, refs); len(deps) != 0 {
		t.Fatalf("read-read pair produced %v", deps)
	}
}

func TestAnalyzeDifferentArraysIndependent(t *testing.T) {
	n := NewNest("t", []int64{0}, []int64{9})
	refs := []Ref{
		SimpleRef(0, 1, []int{0}, []int64{0}, Write),
		SimpleRef(1, 1, []int{0}, []int64{0}, Write),
	}
	if deps := Analyze(n, refs); len(deps) != 0 {
		t.Fatalf("different arrays produced %v", deps)
	}
}

func TestAnalyzeMultiDimDistance(t *testing.T) {
	// A[i,j] = A[i-1, j+2]: distance (1, -2).
	n := NewNest("t", []int64{0, 0}, []int64{9, 9})
	refs := []Ref{
		SimpleRef(0, 2, []int{0, 1}, []int64{0, 0}, Write),
		SimpleRef(0, 2, []int{0, 1}, []int64{-1, 2}, Read),
	}
	deps := Analyze(n, refs)
	if len(deps) != 1 {
		t.Fatalf("deps = %v", deps)
	}
	d := deps[0]
	if d.Distance[0] != 1 || d.Distance[1] != -2 || !d.Known[0] || !d.Known[1] {
		t.Fatalf("distance = %v", d)
	}
	if d.String() != "(1,-2)" {
		t.Fatalf("String = %q", d.String())
	}
}

func TestAnalyzeInnerDependenceOnly(t *testing.T) {
	// A[i,j] = A[i, j-1]: carried by loop 1; loop 0 is parallel.
	n := NewNest("t", []int64{0, 0}, []int64{9, 9})
	refs := []Ref{
		SimpleRef(0, 2, []int{0, 1}, []int64{0, 0}, Write),
		SimpleRef(0, 2, []int{0, 1}, []int64{0, -1}, Read),
	}
	deps := Analyze(n, refs)
	if len(deps) != 1 || deps[0].Carried() != 1 {
		t.Fatalf("deps = %v", deps)
	}
}

func TestAnalyzeFreeDimensionUnknown(t *testing.T) {
	// A[i] written and read in a 2-deep nest: loop j is free -> unknown.
	n := NewNest("t", []int64{0, 0}, []int64{9, 9})
	refs := []Ref{
		SimpleRef(0, 2, []int{0}, []int64{0}, Write),
		SimpleRef(0, 2, []int{0}, []int64{0}, Read),
	}
	deps := Analyze(n, refs)
	// Two dependences: the write's self output-dependence (same i,
	// different j writes the same cell) and the write-read pair.
	if len(deps) != 2 {
		t.Fatalf("deps = %v", deps)
	}
	for _, d := range deps {
		if d.Known[1] {
			t.Fatalf("free dimension should be unknown: %v", d)
		}
		if d.Known[0] && d.Distance[0] != 0 {
			t.Fatalf("i distance should be 0: %v", d)
		}
	}
}

func TestAnalyzeGCDRefutes(t *testing.T) {
	// write A[2i], read A[2i+1]: parity mismatch, no dependence.
	n := NewNest("t", []int64{0}, []int64{9})
	refs := []Ref{
		{Array: 0, Exprs: []RefExpr{{Coeffs: []int64{2}}}, Kind: Write},
		{Array: 0, Exprs: []RefExpr{{Coeffs: []int64{2}, Offset: 1}}, Kind: Read},
	}
	if deps := Analyze(n, refs); len(deps) != 0 {
		t.Fatalf("GCD-refutable pair produced %v", deps)
	}
}

func TestAnalyzeNonUniformConservative(t *testing.T) {
	// write A[i], read A[2i]: non-uniform, GCD passes -> unknown dependence.
	n := NewNest("t", []int64{0}, []int64{9})
	refs := []Ref{
		SimpleRef(0, 1, []int{0}, []int64{0}, Write),
		{Array: 0, Exprs: []RefExpr{{Coeffs: []int64{2}}}, Kind: Read},
	}
	deps := Analyze(n, refs)
	if len(deps) != 1 || deps[0].Known[0] {
		t.Fatalf("deps = %v", deps)
	}
}

func TestAnalyzeModularConservative(t *testing.T) {
	n := NewNest("t", []int64{0}, []int64{9})
	refs := []Ref{
		SimpleRef(0, 1, []int{0}, []int64{0}, Write),
		{Array: 0, Exprs: []RefExpr{{Coeffs: []int64{1}, Mod: 4}}, Kind: Read},
	}
	deps := Analyze(n, refs)
	if len(deps) != 1 || deps[0].Known[0] {
		t.Fatalf("modular pair should be conservative unknown: %v", deps)
	}
}

func TestAnalyzeConstantSubscriptMismatch(t *testing.T) {
	// write A[3], read A[4]: never alias (but the write still output-depends
	// on itself across iterations, since every iteration writes A[3]).
	n := NewNest("t", []int64{0}, []int64{9})
	refs := []Ref{
		SimpleRef(0, 1, []int{-1}, []int64{3}, Write),
		SimpleRef(0, 1, []int{-1}, []int64{4}, Read),
	}
	for _, d := range Analyze(n, refs) {
		if d.Src != d.Dst {
			t.Fatalf("cross pair with mismatched constants produced %v", d)
		}
	}
}

func TestAnalyzeSelfWritePair(t *testing.T) {
	// A[i] = ... : the self write-write pair at identical iterations is not
	// a cross-iteration dependence.
	n := NewNest("t", []int64{0}, []int64{9})
	refs := []Ref{SimpleRef(0, 1, []int{0}, []int64{0}, Write)}
	if deps := Analyze(n, refs); len(deps) != 0 {
		t.Fatalf("self pair produced %v", deps)
	}
}

func TestLegalPermutation(t *testing.T) {
	mk := func(dist ...int64) Dependence {
		known := make([]bool, len(dist))
		for i := range known {
			known[i] = true
		}
		return Dependence{Distance: dist, Known: known}
	}
	// Distance (1, -1): identity legal, swap illegal.
	deps := []Dependence{mk(1, -1)}
	if !LegalPermutation(deps, []int{0, 1}) {
		t.Fatal("identity should be legal")
	}
	if LegalPermutation(deps, []int{1, 0}) {
		t.Fatal("swap should be illegal for (1,-1)")
	}
	// Distance (0, 1): both orders legal.
	deps = []Dependence{mk(0, 1)}
	if !LegalPermutation(deps, []int{1, 0}) {
		t.Fatal("swap should be legal for (0,1)")
	}
	// Unknown entries are conservative.
	unk := Dependence{Distance: []int64{0, 0}, Known: []bool{true, false}}
	if LegalPermutation([]Dependence{unk}, []int{0, 1}) {
		t.Fatal("unknown distance should be conservative")
	}
	pos := Dependence{Distance: []int64{1, 0}, Known: []bool{true, false}}
	if !LegalPermutation([]Dependence{pos}, []int{0, 1}) {
		t.Fatal("known-positive prefix should legalize unknown suffix")
	}
}

func TestDependenceCarriedLoopIndependent(t *testing.T) {
	d := Dependence{Distance: []int64{0, 0}, Known: []bool{true, true}}
	if d.Carried() != -1 {
		t.Fatalf("Carried = %d, want -1", d.Carried())
	}
}

func TestGCD64(t *testing.T) {
	cases := []struct{ a, b, want int64 }{
		{0, 0, 0}, {0, 5, 5}, {12, 18, 6}, {-12, 18, 6}, {7, 13, 1},
	}
	for _, c := range cases {
		if g := gcd64(c.a, c.b); g != c.want {
			t.Errorf("gcd(%d,%d) = %d, want %d", c.a, c.b, g, c.want)
		}
	}
}
