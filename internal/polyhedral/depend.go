package polyhedral

import "fmt"

// Dependence records a data dependence between two references of a nest,
// expressed (when the pair is uniformly generated) as a distance vector:
// iteration σ depends on iteration σ − Distance. Known[k] is false when the
// distance in dimension k could not be determined (the dependence must then
// be treated conservatively in that dimension).
type Dependence struct {
	Src, Dst int // reference indices within the loop body
	Distance []int64
	Known    []bool
}

// Carried returns the outermost loop level (0-based) that carries the
// dependence, or −1 if the dependence is loop-independent (all known
// distances zero). A dimension with unknown distance carries it.
func (d Dependence) Carried() int {
	for k := range d.Distance {
		if !d.Known[k] || d.Distance[k] != 0 {
			return k
		}
	}
	return -1
}

// String renders the distance vector with '*' for unknown entries.
func (d Dependence) String() string {
	s := "("
	for k := range d.Distance {
		if k > 0 {
			s += ","
		}
		if d.Known[k] {
			s += fmt.Sprintf("%d", d.Distance[k])
		} else {
			s += "*"
		}
	}
	return s + ")"
}

func gcd64(a, b int64) int64 {
	if a < 0 {
		a = -a
	}
	if b < 0 {
		b = -b
	}
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// gcdTestMayDepend applies the classic GCD test to a single subscript pair:
// does Σ a_k x_k − Σ b_k y_k = c have an integer solution? It ignores loop
// bounds, so "true" means "may depend".
func gcdTestMayDepend(a, b []int64, c int64) bool {
	var g int64
	for _, v := range a {
		g = gcd64(g, v)
	}
	for _, v := range b {
		g = gcd64(g, v)
	}
	if g == 0 {
		return c == 0
	}
	return c%g == 0
}

// Analyze computes the dependences among the given references of a nest.
// Only pairs touching the same array with at least one write can depend.
//
// For uniformly generated pairs (equal coefficient rows), the distance
// vector is solved exactly per loop dimension where the dimension appears
// with a nonzero coefficient in exactly one subscript; remaining dimensions
// are reported unknown. Non-uniform affine pairs fall back to the GCD test:
// if a solution may exist the dependence is reported with all-unknown
// distances; if the GCD test refutes every subscript pair, no dependence is
// reported. Modular references are treated conservatively (all-unknown).
func Analyze(nest *Nest, refs []Ref) []Dependence {
	var out []Dependence
	depth := nest.Depth()
	for i := range refs {
		for j := range refs {
			if i > j {
				continue // report each unordered pair once (plus self write pairs)
			}
			a, b := refs[i], refs[j]
			if a.Array != b.Array {
				continue
			}
			if a.Kind == Read && b.Kind == Read {
				continue
			}
			if i == j && a.Kind == Read {
				continue
			}
			d, ok := pairDependence(depth, a, b)
			if !ok {
				continue
			}
			d.Src, d.Dst = i, j
			// A self-pair with all-zero known distance is the trivial
			// "same iteration" solution, not a cross-iteration dependence.
			if i == j && d.Carried() == -1 {
				allKnown := true
				for _, k := range d.Known {
					allKnown = allKnown && k
				}
				if allKnown {
					continue
				}
			}
			out = append(out, d)
		}
	}
	return out
}

func pairDependence(depth int, a, b Ref) (Dependence, bool) {
	unknown := Dependence{Distance: make([]int64, depth), Known: make([]bool, depth)}
	if !a.IsAffine() || !b.IsAffine() {
		return unknown, true
	}
	if len(a.Exprs) != len(b.Exprs) {
		return unknown, true
	}
	uniform := true
	for d := range a.Exprs {
		ae, be := a.Exprs[d], b.Exprs[d]
		for k := 0; k < depth; k++ {
			if coeff(ae, k) != coeff(be, k) {
				uniform = false
			}
		}
	}
	if !uniform {
		// Non-uniform: dependence exists only if every subscript equation
		// passes the GCD test.
		for d := range a.Exprs {
			ae, be := a.Exprs[d], b.Exprs[d]
			if !gcdTestMayDepend(ae.Coeffs, be.Coeffs, be.Offset-ae.Offset) {
				return Dependence{}, false
			}
		}
		return unknown, true
	}
	// Uniformly generated: R_a(σa) = R_b(σb) with equal coefficient rows
	// gives, per array dimension d, Σ c_k·(σb_k − σa_k) = aOffset − bOffset.
	// Where a loop dimension k appears alone (single nonzero coefficient in
	// the row), the distance σb_k − σa_k is determined exactly; rows with
	// several nonzero coefficients leave their dimensions coupled (unknown).
	dist := make([]int64, depth)
	known := make([]bool, depth)
	used := make([]bool, depth)
	for d := range a.Exprs {
		ae, be := a.Exprs[d], b.Exprs[d]
		nz, nzk := 0, -1
		for k := 0; k < depth; k++ {
			if coeff(ae, k) != 0 {
				nz++
				nzk = k
			}
		}
		diff := ae.Offset - be.Offset
		switch nz {
		case 0:
			if diff != 0 {
				return Dependence{}, false // constant subscripts differ: no dependence
			}
		case 1:
			c := coeff(ae, nzk)
			if diff%c != 0 {
				return Dependence{}, false
			}
			v := diff / c
			if known[nzk] && dist[nzk] != v {
				return Dependence{}, false // inconsistent rows: no solution
			}
			dist[nzk], known[nzk], used[nzk] = v, true, true
		default:
			for k := 0; k < depth; k++ {
				if coeff(ae, k) != 0 {
					used[k] = true
				}
			}
		}
	}
	// Dimensions never used by the array are free: any distance works, so
	// the dependence exists but those entries stay unknown. Dimensions used
	// only in multi-coefficient rows also stay unknown.
	//
	// Canonicalize: distance vectors are reported lexicographically
	// non-negative (a leading known-negative vector is the same dependence
	// with source and sink swapped).
	for k := 0; k < depth; k++ {
		if !known[k] {
			break
		}
		if dist[k] > 0 {
			break
		}
		if dist[k] < 0 {
			for j := 0; j < depth; j++ {
				if known[j] {
					dist[j] = -dist[j]
				}
			}
			break
		}
	}
	return Dependence{Distance: dist, Known: known}, true
}

func coeff(e RefExpr, k int) int64 {
	if k >= len(e.Coeffs) {
		return 0
	}
	return e.Coeffs[k]
}

// LegalPermutation reports whether reordering the loops by perm keeps every
// dependence lexicographically non-negative (the classical permutation
// legality test). Unknown distance entries are treated as "any value", which
// forbids permuting them inward past known-positive entries conservatively.
func LegalPermutation(deps []Dependence, perm []int) bool {
	for _, d := range deps {
		neg := false
		for _, k := range perm {
			if !d.Known[k] {
				// Unknown entry could be negative: only safe if a
				// known-positive entry precedes it, which would have
				// returned already.
				neg = true
				break
			}
			if d.Distance[k] > 0 {
				break
			}
			if d.Distance[k] < 0 {
				neg = true
				break
			}
		}
		if neg {
			return false
		}
	}
	return true
}
