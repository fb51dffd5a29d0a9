package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strings"

	"repro/internal/plancache"
	"repro/internal/server"
	"repro/internal/workloads"
)

// baseTopo is the paper's 16/32/64 storage hierarchy (storage, I/O and
// compute nodes, top-down) with its per-layer cache capacities in chunks.
const baseTopo = "16/32/64@16,8,4"

// repairTolerance is cachemapd's default -repair-tolerance; drift_repair
// keeps every topology within it so each request is an incremental repair.
const repairTolerance = 0.25

// request is one generated /v1/map call: its body (what the daemon sees)
// and the decoded form the checks and the traced replay use.
type request struct {
	req  server.MapRequest
	body []byte
	pk   plancache.Key // server.PlanKey of req
	key  string        // pk in hex, as responses carry it
	// group labels the request's stratum (its scheme, and for drift_repair
	// its anchor's size) for the stratified plan_io_norm sample; "" keeps
	// a request out of the sample.
	group string
}

// provenance is what every timed response of a workload must report.
type provenance int

const (
	wantFull        provenance = iota // computed by the full pipeline
	wantCached                        // served from the plan cache
	wantIncremental                   // repaired from a cached clustering
)

// workload is one benchmark traffic mix, fully generated from the seed.
type workload struct {
	name string
	// flags are the daemon flags on top of defaults, -repair and a fresh
	// -store-dir, which every workload sets.
	flags []string
	// setup runs after boot in every set-up: warm-up plans, anchors or the
	// hot set. snapshot flushes the plan cache to disk after it.
	setup    []request
	snapshot bool
	timed    []request
	want     provenance
	// refEvery pairs one reference run with this many requests.
	refEvery int
	// ioSample bounds the plans plan_io_norm simulates per group: the
	// first ones served, in the seeded request order.
	ioSample int
}

// Per-workload sizing: timed requests per second of --seconds at nominal
// machine speed. A fixed count (not a fixed duration) keeps peak RSS and
// the hit/miss mix identical from run to run.
const (
	coldPerSecond  = 5    // ~0.2 s per cold plan
	driftPerSecond = 60   // repair plus a paired reference per request
	hitsPerSecond  = 1200 // reference every 16 hits
)

func newWorkload(name string, seed int64, seconds int) (*workload, error) {
	rng := rand.New(rand.NewSource(seed))
	switch name {
	case "cold_plan":
		return coldPlan(rng, seconds)
	case "cache_hits":
		return cacheHits(rng, seconds)
	case "drift_repair":
		return driftRepair(rng, seconds)
	}
	return nil, fmt.Errorf("unknown workload %q (want cold_plan, cache_hits or drift_repair)", name)
}

func newRequest(req server.MapRequest, group string) (request, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return request{}, err
	}
	key, err := server.PlanKey(req)
	if err != nil {
		return request{}, err
	}
	return request{req: req, body: body, pk: key, key: key.String(), group: group}, nil
}

// bigSynth is the large synthetic workload of the pipeline benchmarks:
// three streams over 4 passes, 2,560 iteration chunks at extent 4096.
// Offsets that are multiples of a data chunk (32 elements) move the data
// each chunk touches without changing the chunk count; other offsets and
// any other drift split chunks (up to 2x the chunks and 3x the cost), so
// the generators only vary offsets in whole chunks.
func bigSynth(name string, extent, off2, off3 int64) *workloads.SynthSpec {
	return &workloads.SynthSpec{
		Name:   name,
		Passes: 4,
		Extent: extent,
		Streams: []workloads.StreamSpec{
			{Stride: 1},
			{Stride: 1, Offset: off2},
			{Stride: 2, Offset: off3, Drift: 8},
		},
	}
}

// balancedSchemes returns n inter schemes, exactly half of each, in a
// seeded order, so every seed serves the same mix.
func balancedSchemes(rng *rand.Rand, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = "inter"
		if i%2 == 1 {
			out[i] = "inter-sched"
		}
	}
	rng.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// coldPlan: every request a never-seen 4096-extent synthetic on the
// paper topology. Set-up computes two more as warm-up.
func coldPlan(rng *rand.Rand, seconds int) (*workload, error) {
	w := &workload{
		name:     "cold_plan",
		want:     wantFull,
		refEvery: 1,
		ioSample: 1 << 30, // every timed plan
	}
	n := coldPerSecond * seconds
	const warm = 2
	// 20 × 17 chunk-aligned offset pairs, drawn without replacement; past
	// 340 requests the name makes the spec new.
	const off2s, off3s = 20, 17
	shapes := rng.Perm(off2s * off3s)
	schemes := balancedSchemes(rng, n+warm)
	for i := 0; i < n+warm; i++ {
		sh := shapes[i%len(shapes)]
		name := "cold"
		if round := i / len(shapes); round > 0 {
			name = fmt.Sprintf("cold%d", round)
		}
		off2, off3 := 32*int64(1+sh%off2s), 32*int64(sh/off2s)
		group := schemes[i]
		if i < warm {
			group = "" // warm-ups are not part of the plan_io_norm sample
		}
		r, err := newRequest(server.MapRequest{
			Workload: server.WorkloadSpec{Synth: bigSynth(name, 4096, off2, off3)},
			Topology: baseTopo,
			Scheme:   schemes[i],
		}, group)
		if err != nil {
			return nil, err
		}
		if i < warm {
			w.setup = append(w.setup, r)
		} else {
			w.timed = append(w.timed, r)
		}
	}
	return w, nil
}

// hotTopologies all have 64 clients, so a plan's size depends on its app
// and scheme only and the seeded popularity cannot shift the size mix.
var hotTopologies = []string{
	baseTopo,
	"16/32/64@24,12,6",
	"8/32/64@16,8,4",
	"32/32/64@16,8,4",
}

// Hot-set sizing: 64 plans behind a 40-plan memory tier. Apps are drawn
// uniformly (balanced in blocks of 8); the 8 (topology, scheme) combos
// follow a seeded Zipf(1.0) popularity. An LRU simulation of this mix
// gives ~23.5% disk hits at every seed, so p50 sits well inside memory
// hits and p90 well inside disk hits.
const (
	hotCache   = 40
	hotZipfExp = 1.0
)

// cacheHits: set-up primes the hot set (8 paper apps × 4 topologies × both
// inter schemes) and flushes it to disk; timed requests only re-read it.
func cacheHits(rng *rand.Rand, seconds int) (*workload, error) {
	w := &workload{
		name:     "cache_hits",
		flags:    []string{"-cache", fmt.Sprint(hotCache)},
		snapshot: true,
		want:     wantCached,
		refEvery: 16,
		ioSample: 64,
	}
	apps := workloads.Names()
	type combo struct{ topo, scheme string }
	var combos []combo
	for _, t := range hotTopologies {
		for _, s := range []string{"inter", "inter-sched"} {
			combos = append(combos, combo{t, s})
		}
	}
	hot := make(map[[2]int]request)
	for ci, c := range combos {
		for ai, app := range apps {
			r, err := newRequest(server.MapRequest{
				Workload: server.WorkloadSpec{App: app},
				Topology: c.topo,
				Scheme:   c.scheme,
			}, c.scheme)
			if err != nil {
				return nil, err
			}
			hot[[2]int{ci, ai}] = r
			w.setup = append(w.setup, r)
		}
	}
	rank := rng.Perm(len(combos))
	cum := make([]float64, len(combos))
	var total float64
	for i := range cum {
		total += 1 / math.Pow(float64(i+1), hotZipfExp)
		cum[i] = total
	}
	n := hitsPerSecond * seconds
	var block []int
	for i := 0; i < n; i++ {
		if len(block) == 0 {
			block = rng.Perm(len(apps))
		}
		ai := block[len(block)-1]
		block = block[:len(block)-1]
		u := rng.Float64() * total
		r := 0
		for r < len(cum)-1 && cum[r] < u {
			r++
		}
		w.timed = append(w.timed, hot[[2]int{rank[r], ai}])
	}
	return w, nil
}

// Drift anchors: three synthetic sizes per inter scheme, computed by the
// full pipeline in set-up on the paper topology.
var anchorExtents = []int64{2048, 3072, 4096}

// driftClients are the client-layer node counts every anchor is drifted
// to once per block of 60 requests; the other layers' node counts (which
// shrink or grow) and all capacities are drawn. Every count shrinks the
// client layer, so each repair merges clusters before it balances
// (1–13 ms). Repairs that keep or grow the client layer balance alone in
// 0.1–0.4 ms and left requests dominated by HTTP, JSON and GC, whose time
// the reference kernel could not normalize (16% run-to-run IQR on p50 in
// this benchmark's own measurements, against 3% for shrinking repairs);
// fixing the counts keeps each seed's cost mix the same.
var driftClients = []int{48, 50, 52, 54, 56, 57, 58, 59, 60, 62}

// driftRepair: every timed request asks for an anchor's workload on a
// never-seen topology within the repair tolerance of the paper topology.
func driftRepair(rng *rand.Rand, seconds int) (*workload, error) {
	w := &workload{
		name:     "drift_repair",
		want:     wantIncremental,
		refEvery: 1,
		ioSample: 15,
	}
	var anchors []request
	for _, scheme := range []string{"inter", "inter-sched"} {
		for _, ext := range anchorExtents {
			r, err := newRequest(server.MapRequest{
				Workload: server.WorkloadSpec{Synth: bigSynth("anchor", ext, 64, 0)},
				Topology: baseTopo,
				Scheme:   scheme,
			}, "")
			if err != nil {
				return nil, err
			}
			anchors = append(anchors, r)
		}
	}
	w.setup = anchors
	// Blocks of 60: every anchor once at every driftClients count.
	const block = 60
	n := driftPerSecond * seconds
	n = (n + block - 1) / block * block
	seen := make(map[string]bool)
	for len(w.timed) < n {
		type slot struct {
			anchor int
			cn     int // client-layer node count
		}
		var slots []slot
		for a := range anchors {
			for _, cn := range driftClients {
				slots = append(slots, slot{a, cn})
			}
		}
		rng.Shuffle(len(slots), func(i, j int) { slots[i], slots[j] = slots[j], slots[i] })
		for _, s := range slots {
			a := anchors[s.anchor]
			var topo string
			for {
				topo = driftTopology(rng, s.cn)
				if k := a.key + "|" + topo; !seen[k] {
					seen[k] = true
					break
				}
			}
			req := a.req
			req.Topology = topo
			r, err := newRequest(req, fmt.Sprintf("%s/%d", req.Scheme, req.Workload.Synth.Extent))
			if err != nil {
				return nil, err
			}
			w.timed = append(w.timed, r)
		}
	}
	return w, nil
}

// driftTopology draws a layered topology with cn clients and every other
// layer's node count and capacity within repairTolerance of baseTopo.
func driftTopology(rng *rand.Rand, cn int) string {
	within := func(x, base int) bool {
		d, m := x-base, x
		if d < 0 {
			d = -d
		}
		if base > m {
			m = base
		}
		return float64(d) <= repairTolerance*float64(m)
	}
	draw := func(base, lo, hi int) int {
		for {
			v := lo + rng.Intn(hi-lo+1)
			if within(v, base) {
				return v
			}
		}
	}
	for {
		io := draw(32, 24, 42)
		sn := draw(16, 12, 21)
		if sn > io || io > cn {
			continue // layers may not shrink downwards
		}
		caps := []string{
			fmt.Sprint(draw(16, 12, 21)),
			fmt.Sprint(draw(8, 6, 10)),
			fmt.Sprint(draw(4, 3, 5)),
		}
		if t := fmt.Sprintf("%d/%d/%d@%s", sn, io, cn, strings.Join(caps, ",")); t != baseTopo {
			return t // the anchor's own topology would be a plain cache hit
		}
	}
}
