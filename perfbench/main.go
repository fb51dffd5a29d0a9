// Command perfbench is the repository's end-to-end benchmark. It starts
// cachemapd, drives one of three seeded workloads through it from this
// single load-generator process over one keep-alive connection in a closed
// loop, checks every response, and prints the end-to-end metrics. With
// -trace 1 it also replays the same requests in process through each
// layer's public Go functions and prints the per-layer metrics instead.
//
// Every timing is divided by a fixed reference kernel (ref.go) timed right
// beside the requests it pairs with, then scaled by the kernel's nominal
// time, so a figure reads as milliseconds on the machine the bounds were
// tuned on whatever the machine's speed during the run.
//
// Run it through run.sh, which builds cachemapd and this program from the
// checkout:
//
//	bash perfbench/run.sh --workload cold_plan --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and metrics. The exit code is non-zero when any output check
// fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// setupsPerRun: set-up (boot plus priming) runs this many times on fresh
// daemons and setup_s reports the median; the last daemon serves the
// timed phase.
const setupsPerRun = 3

// metric is one printed figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "cold_plan, cache_hits or drift_repair")
	seed := flag.Int64("seed", 1, "workload seed: the same seed generates the same requests")
	seconds := flag.Int("seconds", 20, "nominal length of the timed phase; sizes the request count")
	trace := flag.Int("trace", 0, "1: replay the requests in process and print per-layer metrics")
	bin := flag.String("daemon", "", "cachemapd binary to drive")
	workdir := flag.String("workdir", "", "directory for plan stores, logs and the span file")
	flag.Parse()
	if *bin == "" || *workdir == "" || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench -daemon BIN -workdir DIR --workload NAME --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	os.Exit(run(*name, *seed, *seconds, *trace == 1, *bin, *workdir))
}

// runState is what one benchmark run accumulates.
type runState struct {
	w        *workload
	ref      *refKernel
	bin, dir string
	chk      *checker
	reqs     map[string]request // every generated request by plan key
	d        *daemon
	deadline time.Time // see runBudget
	// attempted counts requests sent to the daemon, set-ups included;
	// every failed check counts against it.
	attempted int
}

func run(name string, seed int64, seconds int, trace bool, bin, workdir string) int {
	w, err := newWorkload(name, seed, seconds)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	dir := filepath.Join(workdir, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	defer os.RemoveAll(dir)

	s := &runState{w: w, ref: newRefKernel(), bin: bin, dir: dir, reqs: make(map[string]request),
		deadline: time.Now().Add(runBudget)}
	for _, r := range append(append([]request(nil), w.setup...), w.timed...) {
		s.reqs[r.key] = r
	}
	kept := make(map[string]int)
	s.chk = newChecker(w.want, func(r request) bool {
		if r.group == "" || kept[r.group] >= w.ioSample {
			return false
		}
		kept[r.group]++
		return true
	})
	e2e, layer, err := s.measure(trace)
	if s.d != nil {
		if serr := s.d.stop(); serr != nil && err == nil {
			err = serr
		}
		s.d = nil
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}

	out := e2e
	if trace {
		out = layer
	}
	res := result{
		Correct:   s.chk.failed == 0,
		Attempted: s.attempted,
		Failed:    s.chk.failed,
		Metrics:   out,
	}
	for _, e := range s.chk.errs {
		fmt.Printf("FAILED: %s\n", e)
	}
	for k, v := range res.Metrics {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s is %v\n", k, v.Value)
			return 1
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// measure runs the set-ups and the timed phase, then (traced) the
// in-process replay. It returns the end-to-end and per-layer metrics.
func (s *runState) measure(trace bool) (e2e, layer map[string]metric, err error) {
	w := s.w
	fmt.Printf("perfbench workload=%s timed_requests=%d setups=%d ref_nominal_ms=%g\n",
		w.name, len(w.timed), setupsPerRun, refNominalMS)
	var setups []float64
	for k := 0; k < setupsPerRun; k++ {
		norm, err := s.setUp(k)
		if err != nil {
			return nil, nil, err
		}
		setups = append(setups, norm)
		if k < setupsPerRun-1 {
			err := s.d.stop()
			s.d = nil
			if err != nil {
				return nil, nil, err
			}
		}
	}
	tp, err := s.timed()
	if err != nil {
		return nil, nil, err
	}
	err = s.d.stop()
	s.d = nil
	if err != nil {
		return nil, nil, err
	}

	var rec *recorder
	if trace {
		rec = newRecorder()
	}
	rec.at("check", 0)
	ioNorm, ioPlans, err := s.chk.planIONorm(s.reqs, rec.offPath)
	if err != nil {
		s.chk.fail("plan_io_norm: %v", err)
		ioNorm = 0
	}

	n := len(tp.norm)
	e2e = map[string]metric{
		"latency_p50_ms": {quantile(tp.norm, 0.5), "ms"},
		"latency_p90_ms": {quantile(tp.norm, 0.9), "ms"},
		"cpu_ms_per_req": {tp.cpuPerReq, "ms"},
		"peak_rss_mb":    {tp.rssMB, "MiB"},
		"plan_io_norm":   {ioNorm, "ratio"},
		"setup_s":        {median(setups) / 1000, "s"},
	}
	failedShare := float64(s.chk.failed) / float64(s.attempted)
	fmt.Printf("  latency_p50_ms   %10.4f ms     (median of %d timed requests, each over its paired reference)\n", e2e["latency_p50_ms"].Value, n)
	fmt.Printf("  latency_p90_ms   %10.4f ms     (nearest-rank p90 of %d; %d beyond it)\n", e2e["latency_p90_ms"].Value, n, n-int(math.Ceil(0.9*float64(n))))
	fmt.Printf("  cpu_ms_per_req   %10.4f ms     (daemon CPU over %d requests, over %d reference CPU times)\n", tp.cpuPerReq, n, len(tp.refs))
	fmt.Printf("  peak_rss_mb      %10.4f MiB    (daemon VmHWM after %d requests)\n", tp.rssMB, n)
	fmt.Printf("  plan_io_norm     %10.4f ratio  (geomean over %d simulated plans, original = 1)\n", ioNorm, ioPlans)
	fmt.Printf("  failed_share     %10.4f ratio  (%d failed of %d attempted, set-ups included)\n", failedShare, s.chk.failed, s.attempted)
	fmt.Printf("  setup_s          %10.4f s      (median of %d set-ups: %s)\n", e2e["setup_s"].Value, len(setups), fmtList(setups, 1000))
	fmt.Printf("  bench.ref_ms %.4f  bench.steal_ratio %.4f  bench.requests %d  (raw p50 %.4f ms, raw p90 %.4f ms, raw cpu %.4f ms/req, ref cpu %.4f ms)\n",
		tp.refMS, tp.steal, n, quantile(tp.raw, 0.5), quantile(tp.raw, 0.9), tp.daemonCPU/float64(n), tp.refCPU)
	if tp.truncated {
		fmt.Printf("  WARNING: the timed phase hit its time cap after %d of %d requests\n", n, len(s.w.timed))
	}

	layer = s.countMetrics(tp)
	if trace {
		if err := s.replay(rec, e2e["latency_p50_ms"].Value, layer); err != nil {
			return nil, nil, err
		}
		for _, k := range sortedKeys(layer) {
			fmt.Printf("  %-28s %12.6f %s\n", k, layer[k].Value, layer[k].Unit)
		}
	}
	return e2e, layer, nil
}

// setUp boots a fresh daemon on a fresh store and runs the workload's
// priming; it returns the set-up time in normalized ms. A reference runs
// before boot, before every priming step and after the last one; the
// set-up's raw time is divided by their median.
func (s *runState) setUp(k int) (float64, error) {
	store := filepath.Join(s.dir, fmt.Sprintf("store%d", k))
	logPath := filepath.Join(s.dir, fmt.Sprintf("cachemapd%d.log", k))
	refs := []float64{s.ref.measure().wallMS}
	t0 := time.Now()
	d, err := startDaemon(s.bin, store, logPath, s.w.flags)
	if err != nil {
		return 0, err
	}
	s.d = d
	raw := ms(time.Since(t0))
	for _, r := range s.w.setup {
		s.attempted++
		refs = append(refs, s.ref.measure().wallMS)
		t := time.Now()
		status, body, err := d.do(http.MethodPost, "/v1/map", r.body)
		raw += ms(time.Since(t))
		if err != nil {
			return 0, fmt.Errorf("set-up request: %w", err)
		}
		s.chk.check(r, status, body, false)
	}
	if s.w.snapshot {
		refs = append(refs, s.ref.measure().wallMS)
		t := time.Now()
		status, body, err := d.do(http.MethodPost, "/debug/cache/snapshot", nil)
		raw += ms(time.Since(t))
		if err != nil {
			return 0, fmt.Errorf("snapshot: %w", err)
		}
		if status != http.StatusOK {
			return 0, fmt.Errorf("snapshot: status %d: %.200s", status, body)
		}
	}
	refs = append(refs, s.ref.measure().wallMS)
	return raw * refNominalMS / median(refs), nil
}

// normalize divides each raw time by the reference run paired with it
// (refIdx[i] indexes refs): the run right before it. Pairing each request
// with its own neighbour, rather than with a median of several runs,
// cancelled the most machine drift in this benchmark's own measurements.
func normalize(raw []float64, refIdx []int, refs []refSample) (norm, pair []float64) {
	norm = make([]float64, len(raw))
	pair = make([]float64, len(raw))
	for i, v := range raw {
		pair[i] = refs[refIdx[i]].wallMS
		norm[i] = v * refNominalMS / pair[i]
	}
	return norm, pair
}

// timedPhase is what the untraced timed phase measured.
type timedPhase struct {
	raw, norm []float64 // per request: raw ms, normalized ms
	refs      []refSample
	cpuPerReq float64 // normalized daemon CPU ms per request
	rssMB     float64
	refMS     float64
	steal     float64
	m0, m1    map[string]float64 // /metrics before and after
	daemonCPU float64            // raw daemon CPU ms over the phase
	refCPU    float64            // median reference thread CPU ms
	truncated bool
}

// A run must end within 180 s even on a machine several times slower
// than nominal: the timed phase stops at runBudget − postBudget, the
// traced replay at runBudget, and a cut-short run says so.
const (
	runBudget  = 150 * time.Second
	postBudget = 50 * time.Second
)

func (s *runState) timed() (*timedPhase, error) {
	d := s.d
	tp := &timedPhase{}
	var err error
	if tp.m0, err = d.scrape(); err != nil {
		return nil, err
	}
	cpu0, err := procCPUMS(d.pid())
	if err != nil {
		return nil, err
	}
	st0, err := readCPUTimes()
	if err != nil {
		return nil, err
	}
	var refIdx []int
	for i, r := range s.w.timed {
		if i%s.w.refEvery == 0 {
			tp.refs = append(tp.refs, s.ref.measure())
		}
		t := time.Now()
		status, body, err := d.do(http.MethodPost, "/v1/map", r.body)
		lat := ms(time.Since(t))
		s.attempted++
		if err != nil {
			s.chk.fail("%s: %v", r.key[:12], err)
			continue
		}
		tp.raw = append(tp.raw, lat)
		refIdx = append(refIdx, len(tp.refs)-1)
		s.chk.check(r, status, body, true)
		if time.Now().After(s.deadline.Add(-postBudget)) {
			tp.truncated = true
			break
		}
	}
	cpu1, err := procCPUMS(d.pid())
	if err != nil {
		return nil, err
	}
	st1, err := readCPUTimes()
	if err != nil {
		return nil, err
	}
	if tp.rssMB, err = peakRSSMB(d.pid()); err != nil {
		return nil, err
	}
	if tp.m1, err = d.scrape(); err != nil {
		return nil, err
	}
	if len(tp.raw) == 0 {
		return nil, fmt.Errorf("no timed request completed")
	}
	tp.norm, _ = normalize(tp.raw, refIdx, tp.refs)
	tp.daemonCPU = cpu1 - cpu0
	refCPU := make([]float64, len(tp.refs))
	refWall := make([]float64, len(tp.refs))
	for i, r := range tp.refs {
		refCPU[i], refWall[i] = r.cpuMS, r.wallMS
	}
	tp.refCPU = median(refCPU)
	tp.cpuPerReq = tp.daemonCPU / float64(len(tp.norm)) * refNominalMS / tp.refCPU
	tp.refMS = median(refWall)
	tp.steal = stealRatio(st0, st1)
	if s.w.want == wantCached {
		// A hit never runs the pipeline: any compute during the timed
		// phase is a request that was not really served from the cache.
		if n := delta(tp, "cachemapd_pipeline_computes_total"); n != 0 {
			s.chk.fail("cache_hits: %g pipeline computes during the timed phase", n)
		}
	}
	return tp, nil
}

func delta(tp *timedPhase, series string) float64 { return tp.m1[series] - tp.m0[series] }

// countMetrics derives the count-based per-layer metrics from the /metrics
// scrapes around the timed phase, plus the run's diagnostics.
func (s *runState) countMetrics(tp *timedPhase) map[string]metric {
	n := float64(len(tp.norm))
	ratio := func(a, b float64) float64 {
		if b <= 0 {
			return 0
		}
		return a / b
	}
	hits := delta(tp, "cachemapd_plan_cache_hits_total")
	disk := delta(tp, "cachemapd_planstore_disk_hits_total")
	drops := delta(tp, "cachemapd_planstore_write_queue_drops_total")
	appends := delta(tp, "cachemapd_planstore_appends_total")
	depth := tp.m1["cachemapd_planstore_write_queue_depth"]
	// The pairs ratio is measured where the similarity stage runs: the
	// timed phase, or for cache_hits (which never runs it) its priming.
	pg := delta(tp, "cachemapd_similarity_pairs_generated")
	pd := delta(tp, "cachemapd_similarity_pairs_dense_bound")
	if s.w.want == wantCached {
		pg = tp.m0["cachemapd_similarity_pairs_generated"]
		pd = tp.m0["cachemapd_similarity_pairs_dense_bound"]
	}
	gc := delta(tp, "cachemapd_gc_pause_cpu_seconds_total") * 1000
	planKB := 0.0
	if s.chk.planNum > 0 {
		planKB = s.chk.planKB / float64(s.chk.planNum)
	}
	return map[string]metric{
		"plancache.mem_hit_ratio":  {ratio(hits-disk, n), "ratio"},
		"planstore.disk_hit_ratio": {ratio(disk, n), "ratio"},
		"planstore.drop_ratio":     {ratio(drops, drops+appends+depth), "ratio"},
		"server.incremental_ratio": {ratio(delta(tp, `cachemapd_replan_total{outcome="incremental"}`), n), "ratio"},
		"core.pairs_ratio":         {ratio(pg, pd), "ratio"},
		"server.gc_pause_share":    {ratio(gc, tp.daemonCPU), "ratio"},
		"mapping.plan_kb":          {planKB, "KiB"},
		"bench.ref_ms":             {tp.refMS, "ms"},
		"bench.steal_ratio":        {tp.steal, "ratio"},
		"bench.requests":           {n, "count"},
	}
}

// quantile is the nearest-rank q-quantile: the smallest sample with at
// least a q share of the samples at or below it.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// median is the middle value (the mean of the two middle values for an
// even count).
func median(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func fmtList(v []float64, div float64) string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = fmt.Sprintf("%.4f", x/div)
	}
	return strings.Join(parts, " ")
}

func sortedKeys(m map[string]metric) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
