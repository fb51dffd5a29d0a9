package codegen

import (
	"math/rand"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/chunking"
	"repro/internal/itset"
	"repro/internal/polyhedral"
	"repro/internal/tags"
)

func TestRenderEmpty(t *testing.T) {
	n := polyhedral.NewNest("t", []int64{0}, []int64{9})
	if got := Render(n, itset.Set{}); !strings.Contains(got, "no iterations") {
		t.Fatalf("empty render = %q", got)
	}
}

func TestRenderSingleIteration(t *testing.T) {
	n := polyhedral.NewNest("t", []int64{0, 0}, []int64{3, 3})
	got := Render(n, itset.Single(5)) // (1,1)
	if !strings.Contains(got, "execute(i0=1, i1=1)") {
		t.Fatalf("got %q", got)
	}
}

func TestRenderFullRow(t *testing.T) {
	// One whole row of the inner loop: for i1 := 0..3 under fixed i0.
	n := polyhedral.NewNest("t", []int64{0, 0}, []int64{3, 3})
	got := Render(n, itset.Interval(4, 8)) // row i0=1
	if !strings.Contains(got, "i0 := 1") {
		t.Fatalf("missing fixed outer iterator:\n%s", got)
	}
	if !strings.Contains(got, "for i1 := 0; i1 <= 3; i1++") {
		t.Fatalf("missing inner loop:\n%s", got)
	}
}

func TestRenderWholeBox(t *testing.T) {
	n := polyhedral.NewNest("t", []int64{0, 0}, []int64{2, 3})
	got := Render(n, itset.Interval(0, 12))
	if !strings.Contains(got, "for i0 := 0; i0 <= 2; i0++") {
		t.Fatalf("missing outer loop:\n%s", got)
	}
}

func TestRenderCustomNames(t *testing.T) {
	n := polyhedral.NewNest("t", []int64{0, 0}, []int64{1, 1})
	got := Render(n, itset.Interval(0, 4), "t", "i")
	if !strings.Contains(got, "for t :=") || !strings.Contains(got, "for i :=") {
		t.Fatalf("custom names not used:\n%s", got)
	}
}

func TestRenderChunksLabelsTags(t *testing.T) {
	n := polyhedral.NewNest("t", []int64{0}, []int64{31})
	data := chunking.NewDataSpace(64, chunking.Array{Name: "A", Dims: []int64{32}, ElemSize: 8})
	refs := []polyhedral.Ref{polyhedral.SimpleRef(0, 1, []int{0}, []int64{0}, polyhedral.Read)}
	chunks := tags.Compute(n, refs, data)
	got := RenderChunks(n, chunks)
	if !strings.Contains(got, "// chunk 0: tag") {
		t.Fatalf("missing chunk header:\n%s", got)
	}
	if strings.Count(got, "// chunk") != len(chunks) {
		t.Fatalf("wrong chunk count in output")
	}
	if RenderChunks(n, nil) != "// (empty schedule)\n" {
		t.Fatal("empty schedule render wrong")
	}
}

// interpret executes the generated pseudo-code by parsing it — the
// round-trip proof that codegen enumerates exactly the right iterations in
// the right order.
func interpret(t *testing.T, nest *polyhedral.Nest, code string) []int64 {
	t.Helper()
	var out []int64
	vars := map[string]int64{}
	lines := strings.Split(code, "\n")
	reFix := regexp.MustCompile(`^\s*(\w+) := (-?\d+)$`)
	reFor := regexp.MustCompile(`^\s*for (\w+) := (-?\d+); \w+ <= (-?\d+); \w+\+\+ \{$`)
	reExecVec := regexp.MustCompile(`^\s*execute\((.*)\)$`)

	type frame struct {
		name    string
		hi      int64
		bodyTop int
	}
	var stack []frame
	i := 0
	for i < len(lines) {
		line := lines[i]
		switch {
		case strings.TrimSpace(line) == "" || strings.HasPrefix(strings.TrimSpace(line), "//"):
			i++
		case reFix.MatchString(line):
			m := reFix.FindStringSubmatch(line)
			v, _ := strconv.ParseInt(m[2], 10, 64)
			vars[m[1]] = v
			i++
		case reFor.MatchString(line):
			m := reFor.FindStringSubmatch(line)
			lo, _ := strconv.ParseInt(m[2], 10, 64)
			hi, _ := strconv.ParseInt(m[3], 10, 64)
			vars[m[1]] = lo
			if lo > hi {
				// Skip to matching close brace.
				depth := 1
				j := i + 1
				for ; j < len(lines) && depth > 0; j++ {
					if strings.HasSuffix(strings.TrimSpace(lines[j]), "{") {
						depth++
					}
					if strings.TrimSpace(lines[j]) == "}" {
						depth--
					}
				}
				i = j
				continue
			}
			stack = append(stack, frame{name: m[1], hi: hi, bodyTop: i + 1})
			i++
		case strings.TrimSpace(line) == "}":
			f := &stack[len(stack)-1]
			vars[f.name]++
			if vars[f.name] <= f.hi {
				i = f.bodyTop
			} else {
				stack = stack[:len(stack)-1]
				i++
			}
		case reExecVec.MatchString(line):
			m := reExecVec.FindStringSubmatch(line)
			iter := make([]int64, nest.Depth())
			for k := 0; k < nest.Depth(); k++ {
				iter[k] = vars[iterName(nil, k)]
			}
			// execute(i0=1, i1=2) form fixes values inline.
			for _, part := range strings.Split(m[1], ",") {
				part = strings.TrimSpace(part)
				if eq := strings.IndexByte(part, '='); eq >= 0 {
					name := part[:eq]
					v, _ := strconv.ParseInt(part[eq+1:], 10, 64)
					for k := 0; k < nest.Depth(); k++ {
						if iterName(nil, k) == name {
							iter[k] = v
						}
					}
				}
			}
			out = append(out, nest.IterToIndex(iter))
			i++
		default:
			t.Fatalf("interpreter cannot parse line %q", line)
		}
	}
	return out
}

// Property: for random nests and random run sets, interpreting the
// generated code yields exactly the set's indices in increasing order.
func TestPropertyCodegenRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		depth := 1 + r.Intn(3)
		lo, hi := make([]int64, depth), make([]int64, depth)
		for k := 0; k < depth; k++ {
			lo[k] = int64(r.Intn(3))
			hi[k] = lo[k] + int64(1+r.Intn(4))
		}
		nest := polyhedral.NewNest("p", lo, hi)
		var set itset.Set
		for j := 0; j < 1+r.Intn(4); j++ {
			start := r.Int63n(nest.BoxSize())
			end := start + 1 + r.Int63n(nest.BoxSize()-start)
			set = set.Union(itset.Interval(start, end))
		}
		code := Render(nest, set)
		got := interpret(t, nest, code)
		want := make([]int64, 0, set.Count())
		set.ForEach(func(idx int64) bool { want = append(want, idx); return true })
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
