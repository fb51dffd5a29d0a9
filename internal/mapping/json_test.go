package mapping

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"testing"

	"repro/internal/hierarchy"
	"repro/internal/iosim"
	"repro/internal/itset"
	"repro/internal/pipeline"
	"repro/internal/race"
	"repro/internal/workloads"
)

// coldSynth is cachemapd's cold-plan shape: 4 passes over a 4096 extent
// with three streams, 2,560 iteration chunks.
func coldSynth(tb testing.TB) workloads.Workload {
	tb.Helper()
	w, err := workloads.Synthesize(workloads.SynthSpec{
		Name:   "cold",
		Passes: 4,
		Extent: 4096,
		Streams: []workloads.StreamSpec{
			{Stride: 1},
			{Stride: 1, Offset: 64},
			{Stride: 2, Drift: 8},
		},
	})
	if err != nil {
		tb.Fatal(err)
	}
	return w
}

// mapOn plans w under scheme on the topology spec.
func mapOn(tb testing.TB, w workloads.Workload, scheme pipeline.Scheme, topo string) *pipeline.Result {
	tb.Helper()
	tree, err := hierarchy.Parse(topo)
	if err != nil {
		tb.Fatal(err)
	}
	res, err := pipeline.Map(context.Background(), scheme, w.Prog, pipeline.Config{Tree: tree})
	if err != nil {
		tb.Fatalf("%s %s on %s: %v", w.Name, scheme, topo, err)
	}
	return res
}

// checkPlanJSON fails unless AppendJSON writes r exactly as
// json.Marshal(PlanOf(r)) does, appended after whatever dst held.
func checkPlanJSON(t *testing.T, name string, r *pipeline.Result) {
	t.Helper()
	want, err := json.Marshal(PlanOf(r))
	if err != nil {
		t.Fatal(err)
	}
	got := AppendJSON([]byte("head"), r)
	if rest, ok := bytes.CutPrefix(got, []byte("head")); !ok || !bytes.Equal(rest, want) {
		i := 0
		for i < len(rest) && i < len(want) && rest[i] == want[i] {
			i++
		}
		t.Fatalf("%s: AppendJSON differs from json.Marshal(PlanOf) at byte %d:\ngot  %.200q\nwant %.200q",
			name, i, rest[i:], want[i:])
	}
}

// TestPlanJSONMatchesMarshal holds AppendJSON to its oracle on the paper's
// applications and the cold synthetic, under every scheme, on the paper
// topology and an 8-client one. Each plan is checked again under a scheme
// name that needs escaping: Result.Scheme is a free string.
func TestPlanJSONMatchesMarshal(t *testing.T) {
	apps, err := workloads.All(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range append(apps, coldSynth(t)) {
		for _, topo := range []string{"16/32/64@16,8,4", "2/4/8@16,8,4"} {
			for _, scheme := range pipeline.Schemes() {
				name := w.Name + " " + string(scheme) + " on " + topo
				r := mapOn(t, w, scheme, topo)
				checkPlanJSON(t, name, r)
				r.Scheme = "<inter>&\"\\\t\u2028é"
				checkPlanJSON(t, name+" renamed", r)
			}
		}
	}
}

// FuzzPlanJSON holds AppendJSON to json.Marshal(PlanOf) on arbitrary
// results: 0–8 clients, runs through itset.FromRuns with any int64 bounds,
// explicit lists that are nil, empty or not, any chunk and edge counts,
// and any scheme bytes.
func FuzzPlanJSON(f *testing.F) {
	apps, err := workloads.All(1)
	if err != nil {
		f.Fatal(err)
	}
	for i, w := range apps {
		r := mapOn(f, w, pipeline.Schemes()[i%4], "2/4/8@16,8,4")
		// The first blocks of each client keep a plan's shapes in a small
		// input: the minimizer tries removing every span of each new
		// input, and full plans (up to 8 KB) held both workers for
		// seconds at a time.
		for c, blocks := range r.Assignment {
			r.Assignment[c] = blocks[:min(len(blocks), 3)]
		}
		f.Add(string(r.Scheme), r.NumChunks, r.SyncEdges, fuzzBytes(r.Assignment))
	}
	f.Add("<inter>&\"\\", 0, 3, []byte{2, 1, 2, 0, 1, 2, 1, 2, 3})
	f.Add("\x00\n\x7f\xff\xe2\x80\xa8é", -1, -1, []byte{1, 2, 0, 1, 0x81, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 1, 0xfe, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 1})
	f.Fuzz(func(t *testing.T, scheme string, numChunks, syncEdges int, data []byte) {
		checkPlanJSON(t, "fuzz", &pipeline.Result{
			Scheme:     pipeline.Scheme(scheme),
			Assignment: assignmentOf(data),
			NumChunks:  numChunks,
			SyncEdges:  syncEdges,
		})
	})
}

// fuzzReader reads varints off a fuzz input; once the input runs dry,
// every read is 0.
type fuzzReader struct{ b []byte }

func (r *fuzzReader) uvarint() uint64 {
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.b = nil
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *fuzzReader) varint() int64 {
	v, n := binary.Varint(r.b)
	if n <= 0 {
		r.b = nil
		return 0
	}
	r.b = r.b[n:]
	return v
}

// assignmentOf reads an assignment off a fuzz input: a client count (mod
// 9), then per client a block count and per block a kind — 0 runs (a
// count, then start and end of each), 1 an empty explicit list, 2 an
// explicit list (a count, then the indices). fuzzBytes writes the same
// layout.
func assignmentOf(data []byte) iosim.Assignment {
	r := &fuzzReader{data}
	asg := make(iosim.Assignment, r.uvarint()%9)
	for c := range asg {
		for n := r.uvarint(); n > 0 && len(r.b) > 0; n-- {
			var b iosim.Block
			switch r.uvarint() % 3 {
			case 0:
				runs := make([]itset.Run, min(r.uvarint(), uint64(len(r.b))))
				for i := range runs {
					runs[i] = itset.Run{Start: r.varint(), End: r.varint()}
				}
				b.Set = itset.FromRuns(runs...)
			case 1:
				b.Explicit = []int64{}
			case 2:
				b.Explicit = make([]int64, min(r.uvarint(), uint64(len(r.b))))
				for i := range b.Explicit {
					b.Explicit[i] = r.varint()
				}
			}
			asg[c] = append(asg[c], b)
		}
	}
	return asg
}

// fuzzBytes writes a as the fuzz input assignmentOf reads back.
func fuzzBytes(a iosim.Assignment) []byte {
	out := binary.AppendUvarint(nil, uint64(len(a)))
	for _, blocks := range a {
		out = binary.AppendUvarint(out, uint64(len(blocks)))
		for _, b := range blocks {
			switch {
			case b.Explicit == nil:
				runs := b.Set.Runs()
				out = binary.AppendUvarint(out, 0)
				out = binary.AppendUvarint(out, uint64(len(runs)))
				for _, run := range runs {
					out = binary.AppendVarint(out, run.Start)
					out = binary.AppendVarint(out, run.End)
				}
			case len(b.Explicit) == 0:
				out = binary.AppendUvarint(out, 1)
			default:
				out = binary.AppendUvarint(out, 2)
				out = binary.AppendUvarint(out, uint64(len(b.Explicit)))
				for _, x := range b.Explicit {
					out = binary.AppendVarint(out, x)
				}
			}
		}
	}
	return out
}

// TestAllocPlanJSON: writing the cold shape's plan into a warm buffer
// allocates nothing (ci.sh runs every TestAlloc* with GOGC=off).
func TestAllocPlanJSON(t *testing.T) {
	if race.Enabled {
		t.Skip("the alloc gate runs without -race")
	}
	r := mapOn(t, coldSynth(t), pipeline.InterProcessorSched, "16/32/64@16,8,4")
	buf := AppendJSON(nil, r)
	if allocs := testing.AllocsPerRun(20, func() { buf = AppendJSON(buf[:0], r) }); allocs != 0 {
		t.Fatalf("AppendJSON into a warm buffer allocates %v objects/op, want 0", allocs)
	}
}
