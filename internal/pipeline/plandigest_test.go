package pipeline

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/hierarchy"
	"repro/internal/tags"
	"repro/internal/workloads"
)

// assignmentDigest is the SHA-256 of a per-client chunk assignment: every
// client's chunks in order, each as its nest and iteration runs. Two
// assignments hash equal iff they are the same plan.
func assignmentDigest(assign [][]*tags.IterationChunk) string {
	h := sha256.New()
	var buf [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	put(int64(len(assign)))
	for _, cl := range assign {
		put(int64(len(cl)))
		for _, c := range cl {
			put(int64(c.Nest))
			runs := c.Iters.Runs()
			put(int64(len(runs)))
			for _, r := range runs {
				put(r.Start)
				put(r.End)
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// coldSynth is the benchmark's cold-plan workload shape: 4 passes over a
// 4096 extent with three streams (2,560 iteration chunks). Offsets in
// whole data chunks (32 elements) move the data without changing the
// chunk count.
func coldSynth(t *testing.T, extent, off2, off3 int64) []*tags.IterationChunk {
	t.Helper()
	w, err := workloads.Synthesize(workloads.SynthSpec{
		Name:   "digest",
		Passes: 4,
		Extent: extent,
		Streams: []workloads.StreamSpec{
			{Stride: 1},
			{Stride: 1, Offset: off2},
			{Stride: 2, Offset: off3, Drift: 8},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return tags.Compute(w.Prog.Nest, w.Prog.Refs, w.Prog.Data)
}

func parseTree(t *testing.T, spec string) *hierarchy.Tree {
	t.Helper()
	tree, err := hierarchy.Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

// largePlanDigests pins large distribution outputs, recorded before the
// balance and merge loops were rewritten to touch only what a move
// changes. The rewrite must keep every greedy choice, so every digest
// must survive it unchanged.
var largePlanDigests = map[string]string{
	"cold/64,0/16/32/64@16,8,4/t=0":          "7634aba5ea7dfe505f430611d854f16006c62acd37dc625d27b80f2b483d21f0",
	"cold/64,0/16/32/64@16,8,4/t=0.1":        "855aaf8f3ad5b64fa76e09f07bef127fa8116c059c016939893a7ce831576f79",
	"cold/64,0/16/32/64@16,8,4/t=0.5":        "4c6c9ecd5ec1e1252f3826a8fbebe67e3070303f07aedad1c81c3793e8ecf15e",
	"cold/64,0/3/7/20@16,8,4/t=0":            "d0618ae3b7e208827b48c9cbed012571558d968e420e4524db282a1afe984d3f",
	"cold/64,0/3/7/20@16,8,4/t=0.1":          "0d616713a1667be27d1736bb7d0481aa06bb30d22fcb611b98e1b54722f0ff63",
	"cold/64,0/3/7/20@16,8,4/t=0.5":          "1841fdd8b71fd19203a522510e13a4223108579debd51aa1fe9ada0aa30878f4",
	"cold/64,0/2/5/11/37@32,16,8,4/t=0":      "41606fee638824e8108410e69cb2184ede8f0a89487d146173d87bffbf58016d",
	"cold/64,0/2/5/11/37@32,16,8,4/t=0.1":    "61afed2a1d23e1dd60aab97b6e8ff25f4a372091fcc4cb38632fad2db3f827fd",
	"cold/64,0/2/5/11/37@32,16,8,4/t=0.5":    "6e847f9348f82aa3c1d8a004ce9601fb9c42561140d0c1e4c1fd020d2ff7651d",
	"cold/352,160/16/32/64@16,8,4/t=0.1":     "e340ccfb6f744ae5e55be8b418ca340d0e9f3e4b9ebdfa8f403a752923286547",
	"cold/352,160/3/7/20@16,8,4/t=0":         "1d063e37a4c49cf3dcc0a426161f3c78a68cfad31e5372c89acc269848661161",
	"cold/352,160/2/5/11/37@32,16,8,4/t=0.5": "13744e4ba933997a2c8b90df287b29ce010f52a0b26b4944e64c00bbd1865aca",
	"cold/640,512/16/32/64@16,8,4/t=0":       "fb814d5ac5aa9094ebd8ba10d703fbef91af0179668722f444d19eddccd02891",
	"cold/640,512/3/7/20@16,8,4/t=0.5":       "14a573602cb6d53435617e3d212ea4c7b22f0c477275ba764ba3a739ac2607bd",
	"cold/640,512/2/5/11/37@32,16,8,4/t=0.1": "0259493ab1a47634d24136163cac29128bcd60ecffdaeed7c7b45a8c2295774f",
	"app/hf":                                 "e8a792db7055941e4f9ccd491b78c20ccf5705a4bbd63cc1381109da554c0f13",
	"app/sar":                                "d24f8fdcec9df3d21358bd38d67f8c8cf54e2370ffe6109dd0c77fdd3a340e9b",
	"app/contour":                            "21f5770dbcf7cf3ab665df995e11fd5043ac6ebb89f65b071fbb7aff3e17500e",
	"app/astro":                              "26c669f49e1e7367e916fc3ec17009a988f67be3b83b18da0466e6b42e823470",
	"app/e_elem":                             "803dd335723be3b6e60262137b46ada5691a6f56acfb0a8f41f28a10d602c9ee",
	"app/apsi":                               "acaac4921940a3a8b1b082337944a8a6e2b0a2be4d4321d49e67cf7c8b4b0ad8",
	"app/madbench2":                          "9ed028c34f54a54f309e1371b980f5f2203cd682e0dd48de8796c4ad5b9240d8",
	"app/wupwise":                            "7657cd392f4562a5f4673debe7e54aa7ff74a793d6517d7e3a1db4810e5475e4",
	"repair/2048/16/32/48@16,8,4":            "39c52bf2325893d9b66229d2789e16bf95208ac683614313cdeeaa35998cfaff",
	"repair/2048/12/26/57@13,7,3":            "75cd8bfc5400475771c955d91f4abebcdbb9bae7eb4c7ae7be44f33747d87cdd",
	"repair/2048/20/40/62@20,10,5":           "2b50f0243b910569002aef137bef7d47fd15bb1c9ef617f92365c827706d0531",
	"repair/3072/16/32/48@16,8,4":            "7c0cca5d10bb51613e3f87173939df9d0f2da6bfef16da8158c4822d327e10c1",
	"repair/3072/12/26/57@13,7,3":            "fbf03fce467d1e01664550c1be483ff3ebb19de4bbc8a85dc22edf2d1337d33c",
	"repair/3072/20/40/62@20,10,5":           "f95700e57f71a3a0985ed9f9f378465102f75425b533bd8829c42287c275bbaa",
	"repair/4096/16/32/48@16,8,4":            "6234520efb237e19df9a1c1bf03ee766f42c16f04c1628a0b0815306a04c8cfb",
	"repair/4096/12/26/57@13,7,3":            "0db16ad49309f259446f0f6d370a28bb4aba18f780f4e6ff0f1221bc91692e84",
	"repair/4096/20/40/62@20,10,5":           "0cce18db8a6a2ac973baa44e9b291d629db3df34dac9bcd05a4d8687098b7f81",
}

// TestLargePlanDigests pins whole-plan distribution outputs far beyond the
// small goldens: cold-plan-shaped synthetics (thousands of chunks, balance
// rounds in the thousands under one donor) on a regular and two irregular
// topologies at three balance thresholds, the paper's eight applications,
// and incremental repairs of the drift-repair anchors onto shrunk
// topologies. Each cold shape runs at Workers 1, 2, 3 and 8 against its one
// digest: from 2 up, the subtrees below its root split run in parallel,
// also on a one-CPU runner. Short mode keeps one cold shape and one anchor.
func TestLargePlanDigests(t *testing.T) {
	type offsets struct{ off2, off3 int64 }
	type cold struct {
		off   offsets
		topos []string
		ts    []float64
	}
	topos := []string{"16/32/64@16,8,4", "3/7/20@16,8,4", "2/5/11/37@32,16,8,4"}
	colds := []cold{
		{offsets{64, 0}, topos[:1], []float64{0.1}},
	}
	if !testing.Short() {
		colds = append(colds,
			cold{offsets{64, 0}, topos[:1], []float64{0, 0.5}},
			cold{offsets{64, 0}, topos[1:], []float64{0, 0.1, 0.5}},
			cold{offsets{352, 160}, topos[:1], []float64{0.1}},
			cold{offsets{352, 160}, topos[1:2], []float64{0}},
			cold{offsets{352, 160}, topos[2:], []float64{0.5}},
			cold{offsets{640, 512}, topos[:1], []float64{0}},
			cold{offsets{640, 512}, topos[1:2], []float64{0.5}},
			cold{offsets{640, 512}, topos[2:], []float64{0.1}},
		)
	}
	check := func(name string, assign [][]*tags.IterationChunk) {
		t.Helper()
		got := assignmentDigest(assign)
		key, _, _ := strings.Cut(name, " ")
		want, ok := largePlanDigests[key]
		if !ok {
			t.Errorf("%s: no pinned digest (got %s)", name, got)
			return
		}
		if got != want {
			t.Errorf("%s: plan digest %s, want %s", name, got, want)
		}
	}
	for _, c := range colds {
		chunks := coldSynth(t, 4096, c.off.off2, c.off.off3)
		for _, topo := range c.topos {
			tree := parseTree(t, topo)
			for _, th := range c.ts {
				for _, workers := range []int{1, 2, 3, 8} {
					opts := core.DefaultOptions()
					opts.BalanceThreshold = th
					opts.Workers = workers
					assign, err := Distribute(context.Background(), chunks, tree, opts)
					if err != nil {
						t.Fatal(err)
					}
					check(fmt.Sprintf("cold/%d,%d/%s/t=%v (workers=%d)", c.off.off2, c.off.off3, topo, th, workers), assign)
				}
			}
		}
	}

	paper := parseTree(t, "16/32/64@16,8,4")
	for _, app := range workloads.Names() {
		w, err := workloads.Get(app, 1)
		if err != nil {
			t.Fatal(err)
		}
		chunks := tags.Compute(w.Prog.Nest, w.Prog.Refs, w.Prog.Data)
		assign, err := Distribute(context.Background(), chunks, paper, core.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		check("app/"+app, assign)
	}

	// Drift repairs: each anchor's post-balance clustering on the paper
	// topology, re-balanced onto topologies with fewer clients (a merge
	// then a balance, like every drift_repair request).
	extents := []int64{2048}
	if !testing.Short() {
		extents = append(extents, 3072, 4096)
	}
	shrunk := []string{"16/32/48@16,8,4", "12/26/57@13,7,3", "20/40/62@20,10,5"}
	for _, ext := range extents {
		chunks := coldSynth(t, ext, 64, 0)
		assign, err := Distribute(context.Background(), chunks, paper, core.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		for _, topo := range shrunk {
			got, err := core.RebalanceClusters(context.Background(), assign, parseTree(t, topo), core.DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			check(fmt.Sprintf("repair/%d/%s", ext, topo), got)
		}
	}
}
