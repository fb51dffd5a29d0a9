package cachemap

// The benchmark harness regenerates every table and figure of the paper's
// evaluation (Section 5). Each BenchmarkTableX/BenchmarkFigureX measures
// the time to reproduce that experiment end to end (mapping + simulation
// for every application involved) and reports the experiment's headline
// numbers as custom metrics, so `go test -bench . -benchmem` prints the
// same series the paper plots, at the default evaluation scale.
//
// Reported custom metrics are normalized values (original = 1): lower is
// better, and "impr%" metrics are mean improvement percentages.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"repro/internal/bitvec"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/mapping"
	"repro/internal/pipeline"
	"repro/internal/tags"
	"repro/internal/workloads"
)

const benchScale = 1

func benchConfig() experiments.Config {
	cfg := experiments.DefaultConfig()
	cfg.Scale = benchScale
	return cfg
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// BenchmarkTable2MissRates regenerates Table 2: per-application L1/L2/L3
// miss rates of the original version.
func BenchmarkTable2MissRates(b *testing.B) {
	cfg := benchConfig()
	var l1, l2, l3 []float64
	for i := 0; i < b.N; i++ {
		apps, err := cfg.Apps()
		if err != nil {
			b.Fatal(err)
		}
		l1, l2, l3 = nil, nil, nil
		for _, w := range apps {
			m, err := cfg.Run(w, pipeline.Original)
			if err != nil {
				b.Fatal(err)
			}
			l1 = append(l1, m.MissRateL(1)*100)
			l2 = append(l2, m.MissRateL(2)*100)
			l3 = append(l3, m.MissRateL(3)*100)
		}
	}
	b.ReportMetric(mean(l1), "L1miss%")
	b.ReportMetric(mean(l2), "L2miss%")
	b.ReportMetric(mean(l3), "L3miss%")
}

// BenchmarkFigure10NormalizedMissRates regenerates Figure 10: normalized
// miss rates of the intra- and inter-processor schemes.
func BenchmarkFigure10NormalizedMissRates(b *testing.B) {
	cfg := benchConfig()
	var rows []experiments.Figure10Row
	for i := 0; i < b.N; i++ {
		base, err := experiments.RunBaseline(cfg)
		if err != nil {
			b.Fatal(err)
		}
		rows = base.Figure10()
	}
	var iL1, eL1, eL2, eL3 []float64
	for _, r := range rows {
		iL1 = append(iL1, r.IntraL1)
		eL1 = append(eL1, r.InterL1)
		eL2 = append(eL2, r.InterL2)
		eL3 = append(eL3, r.InterL3)
	}
	b.ReportMetric(mean(iL1), "intraL1norm")
	b.ReportMetric(mean(eL1), "interL1norm")
	b.ReportMetric(mean(eL2), "interL2norm")
	b.ReportMetric(mean(eL3), "interL3norm")
}

// BenchmarkFigure11Latency regenerates Figure 11: normalized I/O latency
// and total execution time.
func BenchmarkFigure11Latency(b *testing.B) {
	cfg := benchConfig()
	var rows []experiments.Figure11Row
	for i := 0; i < b.N; i++ {
		base, err := experiments.RunBaseline(cfg)
		if err != nil {
			b.Fatal(err)
		}
		rows = base.Figure11()
	}
	var iIO, eIO, iEx, eEx []float64
	for _, r := range rows {
		iIO = append(iIO, r.IntraIO)
		eIO = append(eIO, r.InterIO)
		iEx = append(iEx, r.IntraExec)
		eEx = append(eEx, r.InterExec)
	}
	b.ReportMetric(experiments.GeoMeanImprovement(iIO), "intraIOimpr%")
	b.ReportMetric(experiments.GeoMeanImprovement(eIO), "interIOimpr%")
	b.ReportMetric(experiments.GeoMeanImprovement(iEx), "intraExecimpr%")
	b.ReportMetric(experiments.GeoMeanImprovement(eEx), "interExecimpr%")
}

// BenchmarkFigure12Topologies regenerates Figure 12: sensitivity to the
// (clients, I/O nodes, storage nodes) topology.
func BenchmarkFigure12Topologies(b *testing.B) {
	cfg := benchConfig()
	topos := experiments.Figure12Topologies()
	var rows []experiments.SweepRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.Figure12(cfg, topos)
		if err != nil {
			b.Fatal(err)
		}
	}
	byLabel := map[string][]float64{}
	for _, r := range rows {
		byLabel[r.Label] = append(byLabel[r.Label], r.IO)
	}
	for _, t := range topos {
		b.ReportMetric(experiments.GeoMeanImprovement(byLabel[t.String()]), "IOimpr%"+t.String())
	}
}

// BenchmarkFigure13CacheCapacities regenerates Figure 13: sensitivity to
// per-node cache capacities.
func BenchmarkFigure13CacheCapacities(b *testing.B) {
	cfg := benchConfig()
	caps := experiments.Figure13Capacities()
	var rows []experiments.SweepRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.Figure13(cfg, caps)
		if err != nil {
			b.Fatal(err)
		}
	}
	byLabel := map[string][]float64{}
	for _, r := range rows {
		byLabel[r.Label] = append(byLabel[r.Label], r.IO)
	}
	for _, c := range caps {
		b.ReportMetric(experiments.GeoMeanImprovement(byLabel[c.String()]), "IOimpr%"+c.String())
	}
}

// BenchmarkFigure14ChunkSizes regenerates Figure 14: sensitivity to the
// data chunk size.
func BenchmarkFigure14ChunkSizes(b *testing.B) {
	cfg := benchConfig()
	sizes := experiments.Figure14Sizes()
	var rows []experiments.SweepRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.Figure14(cfg, sizes)
		if err != nil {
			b.Fatal(err)
		}
	}
	byLabel := map[string][]float64{}
	var order []string
	for _, r := range rows {
		if _, ok := byLabel[r.Label]; !ok {
			order = append(order, r.Label)
		}
		byLabel[r.Label] = append(byLabel[r.Label], r.IO)
	}
	for _, l := range order {
		b.ReportMetric(experiments.GeoMeanImprovement(byLabel[l]), "IOimpr%@"+l)
	}
}

// BenchmarkFigure18Scheduling regenerates Figure 18: the scheduling
// enhancement's L1 miss, I/O and execution improvements.
func BenchmarkFigure18Scheduling(b *testing.B) {
	cfg := benchConfig()
	var rows []experiments.Figure18Row
	for i := 0; i < b.N; i++ {
		base, err := experiments.RunBaseline(cfg)
		if err != nil {
			b.Fatal(err)
		}
		rows = base.Figure18()
	}
	var l1, io, ex []float64
	for _, r := range rows {
		l1 = append(l1, r.L1Miss)
		io = append(io, r.IO)
		ex = append(ex, r.Exec)
	}
	b.ReportMetric(experiments.GeoMeanImprovement(l1), "L1impr%")
	b.ReportMetric(experiments.GeoMeanImprovement(io), "IOimpr%")
	b.ReportMetric(experiments.GeoMeanImprovement(ex), "Execimpr%")
}

// BenchmarkAlphaBeta regenerates the Section 5.4 α/β weight study.
func BenchmarkAlphaBeta(b *testing.B) {
	cfg := benchConfig()
	weights := [][2]float64{{0, 1}, {0.5, 0.5}, {1, 0}}
	var rows []experiments.AlphaBetaRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.AlphaBetaSweep(cfg, weights)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(r.MeanIO, "IOnorm@a"+trim(r.Alpha))
	}
}

func trim(v float64) string {
	switch v {
	case 0:
		return "0"
	case 0.5:
		return "05"
	case 1:
		return "1"
	}
	return "x"
}

// BenchmarkDependenceHandling regenerates the Section 5.4 dependence study
// (merge vs sync strategies on a wavefront nest).
func BenchmarkDependenceHandling(b *testing.B) {
	cfg := benchConfig()
	var rows []experiments.DependenceRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.DependenceStudy(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(r.IO, "IOnorm@"+r.Mode)
	}
}

// BenchmarkMultiNest regenerates the Section 5.4 multi-nest study.
func BenchmarkMultiNest(b *testing.B) {
	cfg := benchConfig()
	var rows []experiments.MultiNestRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.MultiNestStudy(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(r.HitRate*100, "hit%@"+r.Mode)
	}
}

// --- component micro-benchmarks ---

// BenchmarkTagComputation measures iteration chunk formation on the
// largest application model.
func BenchmarkTagComputation(b *testing.B) {
	w, err := workloads.Get("contour", benchScale)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		chunks := tags.Compute(w.Prog.Nest, w.Prog.Refs, w.Prog.Data)
		if len(chunks) == 0 {
			b.Fatal("no chunks")
		}
	}
}

// BenchmarkDistribute measures the Figure 5 clustering algorithm.
func BenchmarkDistribute(b *testing.B) {
	cfg := benchConfig()
	w, err := workloads.Get("contour", benchScale)
	if err != nil {
		b.Fatal(err)
	}
	chunks := tags.Compute(w.Prog.Nest, w.Prog.Refs, w.Prog.Data)
	tree := cfg.Tree()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pipeline.Distribute(context.Background(), chunks, tree, core.DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSchedule measures the Figure 15 scheduling algorithm.
func BenchmarkSchedule(b *testing.B) {
	cfg := benchConfig()
	w, err := workloads.Get("contour", benchScale)
	if err != nil {
		b.Fatal(err)
	}
	chunks := tags.Compute(w.Prog.Nest, w.Prog.Refs, w.Prog.Data)
	tree := cfg.Tree()
	assign, err := pipeline.Distribute(context.Background(), chunks, tree, core.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pipeline.Schedule(context.Background(), assign, tree, core.DefaultScheduleOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulate measures the event-driven simulator on one mapped
// application.
func BenchmarkSimulate(b *testing.B) {
	cfg := benchConfig()
	w, err := workloads.Get("apsi", benchScale)
	if err != nil {
		b.Fatal(err)
	}
	tree := cfg.Tree()
	res, err := pipeline.Map(context.Background(), pipeline.InterProcessor, w.Prog, pipeline.Config{Tree: tree})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := Simulate(cfg.Tree(), w.Prog, res.Assignment, cfg.Params)
		if err != nil {
			b.Fatal(err)
		}
		if m.Iterations == 0 {
			b.Fatal("nothing executed")
		}
	}
}

// BenchmarkLRUCache measures the chunk cache fast path.
func BenchmarkLRUCache(b *testing.B) {
	c := cache.New(cache.LRU, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		chunk := i & 2047
		if !c.Lookup(chunk, false) {
			c.Insert(chunk, false)
		}
	}
}

// BenchmarkTagDotProduct measures the similarity-graph edge weight kernel.
func BenchmarkTagDotProduct(b *testing.B) {
	a := bitvec.New(2048)
	c := bitvec.New(2048)
	for i := 0; i < 2048; i += 3 {
		a.Set(i)
	}
	for i := 0; i < 2048; i += 5 {
		c.Set(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if a.AndPopCount(c) < 0 {
			b.Fatal("impossible")
		}
	}
}

// BenchmarkPostings measures the inverted-index build that seeds the
// sparse similarity engine: one posting list per touched data chunk over
// the set bits of the largest application model's chunk tags, as a
// split's Stage 0 hands them over. The index storage is recycled, so warm
// builds should report 0 allocs/op.
func BenchmarkPostings(b *testing.B) {
	w, err := workloads.Get("contour", benchScale)
	if err != nil {
		b.Fatal(err)
	}
	chunks := tags.Compute(w.Prog.Nest, w.Prog.Refs, w.Prog.Data)
	r := chunks[0].Tag.Len()
	rows := make([][]int32, len(chunks))
	for i, c := range chunks {
		rows[i] = c.Tag.Bits()
	}
	var ix bitvec.PostingIndex
	ix.Build(r, rows) // warm the recycled storage
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if flat, _ := ix.Build(r, rows); len(flat) == 0 {
			b.Fatal("empty index")
		}
	}
}

// BenchmarkCacheHitServe measures the full HTTP serve path of a warm
// plan-cache hit: request decode, cache probe, response encode, all through
// a real net/http round trip against the embedded daemon handler. The
// allocs/op figure gates the steady-state serving cost (the hit path reuses
// pooled encode buffers; what remains is net/http per-request overhead).
func BenchmarkCacheHitServe(b *testing.B) {
	svc := newTestService(b, ServiceConfig{})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	body, err := json.Marshal(MapRequest{
		Workload: WorkloadSpec{Synth: &SynthSpec{
			Name:    "servehot",
			Passes:  4,
			Extent:  2048,
			Streams: []StreamSpec{{Stride: 1}, {Stride: 1, Offset: 32}},
		}},
		Topology: "4/8/16@16,8,4",
		Scheme:   "inter",
	})
	if err != nil {
		b.Fatal(err)
	}
	post := func() MapResponse {
		resp, err := http.Post(ts.URL+"/v1/map", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d", resp.StatusCode)
		}
		var mr MapResponse
		if err := json.NewDecoder(resp.Body).Decode(&mr); err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
		return mr
	}
	if mr := post(); mr.Cached {
		b.Fatal("first request unexpectedly hit the cache")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if mr := post(); !mr.Cached {
			b.Fatal("warm request missed the plan cache")
		}
	}
}

// BenchmarkDiskHitServe measures the full HTTP serve path of a plan-cache
// disk hit: over a 1-plan memory tier, requests alternate between the hf
// and sar plans on 16/32/64, so each one misses memory and is answered
// from the plan log (record read, CRC check, split into plan bytes and
// provenance, response splice). The client decodes only cached and
// cache_key, so allocs/op gate a relapse into decoding the plan on a hit.
func BenchmarkDiskHitServe(b *testing.B) {
	var cfg ServiceConfig
	cfg.PlanCacheSize = 1
	cfg.Store.Dir = b.TempDir()
	svc := newTestService(b, cfg)
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	var bodies [][]byte
	for _, app := range []string{"hf", "sar"} {
		body, err := json.Marshal(MapRequest{
			Workload: WorkloadSpec{App: app},
			Topology: "16/32/64@16,8,4",
			Scheme:   "inter",
		})
		if err != nil {
			b.Fatal(err)
		}
		bodies = append(bodies, body)
	}
	post := func(path string, body []byte) bool {
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("%s: status %d", path, resp.StatusCode)
		}
		var out struct {
			Cached   bool   `json:"cached"`
			CacheKey string `json:"cache_key"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			b.Fatal(err)
		}
		return out.Cached
	}
	for _, body := range bodies {
		if post("/v1/map", body) {
			b.Fatal("first request unexpectedly hit the cache")
		}
	}
	// The snapshot flushes the write-behind queue: both records are on
	// disk before the first timed request.
	post("/debug/cache/snapshot", nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !post("/v1/map", bodies[i%2]) {
			b.Fatal("request missed both plan-cache tiers")
		}
	}
}

// BenchmarkPlanEncode writes the cold plan shape's plan (2,560 iteration
// chunks over 16/32/64, inter-sched, about 80 KB of JSON) into a warm
// buffer with mapping.AppendJSON, the one encode every computed, repaired
// and fallback plan gets in cachemapd. Its allocs/op must stay 0.
func BenchmarkPlanEncode(b *testing.B) {
	w, err := workloads.Synthesize(workloads.SynthSpec{
		Name:   "planencode",
		Passes: 4,
		Extent: 4096,
		Streams: []workloads.StreamSpec{
			{Stride: 1}, {Stride: 1, Offset: 64}, {Stride: 2, Drift: 8},
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	res, err := pipeline.Map(context.Background(), pipeline.InterProcessorSched, w.Prog, pipeline.Config{Tree: benchConfig().Tree()})
	if err != nil {
		b.Fatal(err)
	}
	buf := mapping.AppendJSON(nil, res)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = mapping.AppendJSON(buf[:0], res)
	}
}

// BenchmarkCacheModes regenerates the cache-management-mode ablation
// (inclusive / exclusive / prefetching).
func BenchmarkCacheModes(b *testing.B) {
	cfg := benchConfig()
	var rows []experiments.ModeRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.CacheModeStudy(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(r.Norm, "IOnorm@"+r.Mode)
	}
}

// BenchmarkIrregular regenerates the future-work irregular-access study.
func BenchmarkIrregular(b *testing.B) {
	cfg := benchConfig()
	var rows []experiments.IrregularRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.IrregularStudy(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.Scheme == "inter" || r.Scheme == "inter-sched" {
			b.ReportMetric(r.Norm, "IOnorm@"+r.Scheme)
		}
	}
}

// BenchmarkPolicyAblation regenerates the replacement-policy ablation.
func BenchmarkPolicyAblation(b *testing.B) {
	cfg := benchConfig()
	var rows []experiments.PolicyRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.PolicyAblation(cfg,
			[]cache.PolicyKind{cache.LRU, cache.FIFO, cache.CLOCK, cache.MQ})
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(r.MeanIO, "IOnorm@"+r.Policy)
	}
}

// BenchmarkThresholdSweep regenerates the balance-threshold ablation.
func BenchmarkThresholdSweep(b *testing.B) {
	cfg := benchConfig()
	var rows []experiments.ThresholdRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.ThresholdSweep(cfg, []float64{0.05, 0.10, 0.20})
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		_ = r
	}
	b.ReportMetric(rows[1].MeanIO, "IOnorm@10%")
}

// BenchmarkPlanCache measures the serving subsystem's memoization win.
// "cold" computes a fresh plan through the full clustering pipeline on
// every iteration (each request content-hashes to a new key); "hit" serves
// the identical spec from the content-addressed plan cache. The acceptance
// bar for cachemapd is hit ≥ 100× faster than cold.
func BenchmarkPlanCache(b *testing.B) {
	req := func(name string) MapRequest {
		return MapRequest{
			Workload: WorkloadSpec{Synth: &SynthSpec{
				Name:    name,
				Passes:  4,
				Extent:  2048,
				Streams: []StreamSpec{{Stride: 1}, {Stride: 1, Offset: 32}},
			}},
			Topology: "4/8/16@16,8,4",
			Scheme:   "inter",
		}
	}
	b.Run("cold", func(b *testing.B) {
		svc := newTestService(b, ServiceConfig{})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			mr, err := svc.ComputePlan(req(fmt.Sprintf("cold%d", i)))
			if err != nil {
				b.Fatal(err)
			}
			if mr.Cached {
				b.Fatal("cold request unexpectedly hit the cache")
			}
		}
	})
	b.Run("hit", func(b *testing.B) {
		svc := newTestService(b, ServiceConfig{})
		if _, err := svc.ComputePlan(req("hot")); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			mr, err := svc.ComputePlan(req("hot"))
			if err != nil {
				b.Fatal(err)
			}
			if !mr.Cached {
				b.Fatal("hot request missed the cache")
			}
		}
	})
}

// BenchmarkPipelineParallelism compares the parallel planner stages — tag
// computation (sharded over iteration ranges) and similarity-graph
// weighting (sharded over row blocks) — at 1 worker versus GOMAXPROCS
// workers on the largest synthetic workload. Results are byte-identical at
// any worker count; only wall time may differ. The workers=GOMAXPROCS
// variant reports scaling-ratio — the single-worker parallel-section time
// divided by its own — and skips itself on a single-CPU host, where it
// would measure the identical configuration twice. It also reports the
// sequential cluster and balance stages from the same run ledger, the
// bulk of a cold plan, so the BENCH.json gate covers them too.
func BenchmarkPipelineParallelism(b *testing.B) {
	w, err := workloads.Synthesize(workloads.SynthSpec{
		Name:   "parbench",
		Passes: 4,
		Extent: 8192,
		Streams: []workloads.StreamSpec{
			{Stride: 1}, {Stride: 1, Offset: 64}, {Stride: 2, Drift: 8},
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	tree := benchConfig().Tree()
	procs := runtime.GOMAXPROCS(0)
	var perOp [2]float64 // tag+similarity ms/op at workers=1, workers=procs
	for vi, workers := range []int{1, procs} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			if vi == 1 && procs == 1 {
				b.Skip("GOMAXPROCS=1: the parallel variant is workers=1 again")
			}
			var tagMS, simMS, clusterMS, balanceMS float64
			var pairsGen, pairsDense int64
			for i := 0; i < b.N; i++ {
				t0 := time.Now()
				chunks, err := tags.ComputeCtx(context.Background(), w.Prog.Nest, w.Prog.Refs, w.Prog.Data, workers)
				if err != nil {
					b.Fatal(err)
				}
				tagMS += float64(time.Since(t0)) / float64(time.Millisecond)
				r := pipeline.NewRun(context.Background())
				opts := core.DefaultOptions()
				opts.Workers = workers
				opts.Clock = r
				if _, err := pipeline.Distribute(context.Background(), chunks, tree, opts); err != nil {
					b.Fatal(err)
				}
				pairsGen, pairsDense = 0, 0
				for _, st := range r.Timings() {
					switch st.Stage {
					case pipeline.StageSimilarity:
						simMS += st.DurationMS
						pairsGen += st.PairsGenerated
						pairsDense += st.PairsDense
					case pipeline.StageCluster:
						clusterMS += st.DurationMS
					case pipeline.StageBalance:
						balanceMS += st.DurationMS
					}
				}
			}
			b.ReportMetric(tagMS/float64(b.N), "tag-ms/op")
			b.ReportMetric(simMS/float64(b.N), "similarity-ms/op")
			b.ReportMetric(clusterMS/float64(b.N), "cluster-ms/op")
			b.ReportMetric(balanceMS/float64(b.N), "balance-ms/op")
			// The sparse similarity engine's selectivity on this workload:
			// pairs materialized as a fraction of the dense n(n−1)/2 bound.
			if pairsDense > 0 {
				b.ReportMetric(float64(pairsGen)/float64(pairsDense), "pairs-ratio")
			}
			perOp[vi] = (tagMS + simMS) / float64(b.N)
			if vi == 1 && perOp[0] > 0 && perOp[1] > 0 {
				// How much faster the parallel sections ran with
				// GOMAXPROCS workers (>1 means a real speedup).
				b.ReportMetric(perOp[0]/perOp[1], "scaling-ratio")
			}
		})
	}
}

// BenchmarkFineChunks plans sar and e_elem inter-sched at 1 KB data
// chunks, one worker, on the paper topology. Our 4 KB default stands for
// the paper's 64 KB, so 1 KB is its 16 KB point: a quarter of the chunk
// size gives four times the data chunks r and more iteration chunks, the
// regime where a plan cost that grows faster than r shows. It reports the
// balance stage and the Figure 15 schedule stage, the two that walk member
// tags.
func BenchmarkFineChunks(b *testing.B) {
	tree := benchConfig().Tree()
	for _, app := range []string{"sar", "e_elem"} {
		b.Run(app, func(b *testing.B) {
			w, err := workloads.Get(app, benchScale)
			if err != nil {
				b.Fatal(err)
			}
			w = w.WithChunkBytes(1024)
			cfg := pipeline.Config{Tree: tree, Workers: 1}
			var balanceMS, scheduleMS float64
			for i := 0; i < b.N; i++ {
				res, err := pipeline.Map(context.Background(), pipeline.InterProcessorSched, w.Prog, cfg)
				if err != nil {
					b.Fatal(err)
				}
				for _, st := range res.Stages {
					switch st.Stage {
					case pipeline.StageBalance:
						balanceMS += st.DurationMS
					case pipeline.StageSchedule:
						scheduleMS += st.DurationMS
					}
				}
			}
			b.ReportMetric(balanceMS/float64(b.N), "balance-ms/op")
			b.ReportMetric(scheduleMS/float64(b.N), "schedule-ms/op")
		})
	}
}

// BenchmarkReplanIncremental measures the incremental re-planning
// fast-path against the full pipeline it short-circuits: one iteration
// runs the complete inter-processor pipeline (tags, similarity, cluster,
// balance, schedule, encode) and then resumes the cached post-balance
// State through balance/schedule/encode only. The speedup-floor metric is
// the ratio of the two — the ledger pins it at 5x, which ci.sh gates as a
// hard lower bound (see benchjson's "-floor" semantics).
func BenchmarkReplanIncremental(b *testing.B) {
	w, err := workloads.Synthesize(workloads.SynthSpec{
		Name:   "replanbench",
		Passes: 4,
		Extent: 8192,
		Streams: []workloads.StreamSpec{
			{Stride: 1}, {Stride: 1, Offset: 64}, {Stride: 2, Drift: 8},
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	cfg := pipeline.Config{Tree: benchConfig().Tree()}
	prime, err := pipeline.Map(context.Background(), pipeline.InterProcessor, w.Prog, cfg)
	if err != nil {
		b.Fatal(err)
	}
	st := prime.State()
	if st == nil {
		b.Fatal("inter-processor run produced no resumable state")
	}

	var fullMS, repairMS float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		if _, err := pipeline.Map(context.Background(), pipeline.InterProcessor, w.Prog, cfg); err != nil {
			b.Fatal(err)
		}
		fullMS += float64(time.Since(t0)) / float64(time.Millisecond)
		t1 := time.Now()
		if _, err := pipeline.Resume(context.Background(), st, cfg); err != nil {
			b.Fatal(err)
		}
		repairMS += float64(time.Since(t1)) / float64(time.Millisecond)
	}
	b.ReportMetric(fullMS/float64(b.N), "full-ms/op")
	b.ReportMetric(repairMS/float64(b.N), "repair-ms/op")
	if repairMS > 0 {
		b.ReportMetric(fullMS/repairMS, "speedup-floor")
	}
}
