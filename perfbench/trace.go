package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/hierarchy"
	"repro/internal/iosim"
	"repro/internal/mapping"
	"repro/internal/pipeline"
	"repro/internal/plancache"
	"repro/internal/planstore"
	"repro/internal/server"
	"repro/internal/tags"
	"repro/internal/workloads"
)

// span is one recorded call into a layer.
type span struct {
	name   string
	phase  string // "setup", "timed" or "check"
	req    int    // request index within its phase
	parent int    // index of the parent span; -1 for a root
	start  time.Duration
	dur    time.Duration
}

// recorder keeps the traced replay's spans in memory. A nil or disabled
// recorder records nothing, which is how the untraced comparison pass
// runs the same code.
type recorder struct {
	mu    sync.Mutex
	on    bool
	epoch time.Time
	spans []span
	phase string
	req   int
	stack []int
}

func newRecorder() *recorder { return &recorder{on: true, epoch: time.Now()} }

func (r *recorder) enabled() bool { return r != nil && r.on }

func (r *recorder) at(phase string, req int) {
	if r.enabled() {
		r.phase, r.req = phase, req
	}
}

// begin opens a span under the innermost open span.
func (r *recorder) begin(name string) int {
	if !r.enabled() {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	parent := -1
	if n := len(r.stack); n > 0 {
		parent = r.stack[n-1]
	}
	r.spans = append(r.spans, span{name: name, phase: r.phase, req: r.req, parent: parent, start: time.Since(r.epoch)})
	i := len(r.spans) - 1
	r.stack = append(r.stack, i)
	return i
}

func (r *recorder) end(i int) {
	if i < 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[i].dur = time.Since(r.epoch) - r.spans[i].start
	r.stack = r.stack[:len(r.stack)-1]
}

// record adds a finished span under the innermost open span.
func (r *recorder) record(name string, start time.Time, d time.Duration) {
	if !r.enabled() {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	parent := -1
	if n := len(r.stack); n > 0 {
		parent = r.stack[n-1]
	}
	r.spans = append(r.spans, span{name: name, phase: r.phase, req: r.req, parent: parent,
		start: start.Sub(r.epoch), dur: d})
}

// offPath times work that is not on a request's response path (the
// quality simulation, cross-checks) as its own root span.
func (r *recorder) offPath(name string) func() {
	if !r.enabled() {
		return func() {}
	}
	i := r.begin(name)
	return func() { r.end(i) }
}

// phaseClock is the benchmark-side core.Options.Clock: the distributor
// reports its similarity, cluster and balance phases to it, and each
// becomes a span under the call that drove it.
type phaseClock struct{ rec *recorder }

func (c phaseClock) StartPhase(name string) func() {
	start := time.Now()
	return func() { c.rec.record("core."+name, start, time.Since(start)) }
}

func (c phaseClock) RecordPhase(name string, start time.Time, d time.Duration) {
	c.rec.record("core."+name, start, d)
}

func (r *recorder) clock() core.PhaseClock {
	if !r.enabled() {
		return nil
	}
	return phaseClock{r}
}

// replayer drives the layers' public functions the way cachemapd does for
// each request, with cachemapd's request defaults (balance threshold 0.10,
// α = β = 0.5, dependences ignored) and its worker count.
type replayer struct {
	ctx     context.Context
	rec     *recorder
	workers int
	works   map[string]workloads.Workload
	buf     bytes.Buffer
	log     *planstore.Log[mapping.Plan] // benchmark-owned plan log
}

const (
	defaultBalance = 0.10
	defaultAlpha   = 0.5
	defaultBeta    = 0.5
)

func (p *replayer) decode(body []byte) (server.MapRequest, plancache.Key, error) {
	var req server.MapRequest
	sp := p.rec.begin("server.decode")
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	err := dec.Decode(&req)
	p.rec.end(sp)
	if err != nil {
		return req, plancache.Key{}, err
	}
	sp = p.rec.begin("plancache.key")
	key, err := server.PlanKey(req)
	p.rec.end(sp)
	return req, key, err
}

func (p *replayer) workload(spec server.WorkloadSpec) (workloads.Workload, error) {
	raw, err := json.Marshal(spec)
	if err != nil {
		return workloads.Workload{}, err
	}
	if w, ok := p.works[string(raw)]; ok {
		return w, nil
	}
	var w workloads.Workload
	switch {
	case spec.Synth != nil:
		w, err = workloads.Synthesize(*spec.Synth)
	case spec.App != "":
		w, err = workloads.Get(spec.App, 1)
	default:
		err = fmt.Errorf("unsupported workload spec")
	}
	if err == nil {
		p.works[string(raw)] = w
	}
	return w, err
}

// encode is the pipeline's encode stage plus the wire conversion: empty
// chunks dropped, then mapping.PlanOf.
func encode(scheme pipeline.Scheme, perClient [][]*tags.IterationChunk, numChunks int) mapping.Plan {
	asg := make(iosim.Assignment, len(perClient))
	for ci, cl := range perClient {
		for _, c := range cl {
			if !c.Iters.IsEmpty() {
				asg[ci] = append(asg[ci], iosim.Block{Set: c.Iters})
			}
		}
	}
	return mapping.PlanOf(&pipeline.Result{Scheme: scheme, Assignment: asg, NumChunks: numChunks})
}

// respond encodes the response body as the server does; it returns the
// plan's own bytes for comparison with what the daemon served.
func (p *replayer) respond(resp server.MapResponse) ([]byte, error) {
	sp := p.rec.begin("server.respond")
	p.buf.Reset()
	err := json.NewEncoder(&p.buf).Encode(resp)
	p.rec.end(sp)
	if err != nil {
		return nil, err
	}
	return json.Marshal(resp.Plan)
}

// full replays a cold request: tags → distribute (similarity, cluster,
// balance via the clock) → schedule → encode. It returns the plan, its
// bytes and the resumable state.
func (p *replayer) full(body []byte) ([]byte, mapping.Plan, *pipeline.State, error) {
	var none mapping.Plan
	req, key, err := p.decode(body)
	if err != nil {
		return nil, none, nil, err
	}
	sp := p.rec.begin("workloads.build")
	w, err := p.workload(req.Workload)
	var tree *hierarchy.Tree
	if err == nil {
		tree, err = hierarchy.Parse(req.Topology)
	}
	p.rec.end(sp)
	if err != nil {
		return nil, none, nil, err
	}
	scheme := pipeline.Scheme(req.Scheme)
	sp = p.rec.begin("tags")
	chunks, err := tags.ComputeCtx(p.ctx, w.Prog.Nest, w.Prog.Refs, w.Prog.Data, p.workers)
	p.rec.end(sp)
	if err != nil {
		return nil, none, nil, err
	}
	sp = p.rec.begin("pipeline.distribute")
	perClient, err := pipeline.Distribute(p.ctx, chunks, tree, core.Options{
		BalanceThreshold: defaultBalance, Workers: p.workers, Clock: p.rec.clock()})
	p.rec.end(sp)
	if err != nil {
		return nil, none, nil, err
	}
	sp = p.rec.begin("core.schedule")
	sched, err := core.RescheduleStages(p.ctx, perClient, tree,
		core.ScheduleOptions{Alpha: defaultAlpha, Beta: defaultBeta}, scheme == pipeline.InterProcessorSched)
	p.rec.end(sp)
	if err != nil {
		return nil, none, nil, err
	}
	sp = p.rec.begin("mapping.encode")
	plan := encode(scheme, sched, len(chunks))
	p.rec.end(sp)
	planBytes, err := p.respond(server.MapResponse{Plan: plan, CacheKey: key.String(), Replanned: server.ReplanFull})
	if err != nil {
		return nil, none, nil, err
	}
	st := &pipeline.State{Scheme: scheme, NumChunks: len(chunks), Clustering: perClient}
	for _, cl := range perClient {
		if len(cl) > 0 {
			st.TagWidth = cl[0].Tag.Len()
			break
		}
	}
	return planBytes, plan, st, nil
}

// repair replays a drifted request against its anchor's state: rebalance
// (merge phases and balance via the clock) → schedule → encode.
func (p *replayer) repair(body []byte, st *pipeline.State) ([]byte, plancache.Key, mapping.Plan, error) {
	req, key, err := p.decode(body)
	if err != nil {
		return nil, key, mapping.Plan{}, err
	}
	sp := p.rec.begin("workloads.build")
	tree, err := hierarchy.Parse(req.Topology)
	p.rec.end(sp)
	if err != nil {
		return nil, key, mapping.Plan{}, err
	}
	sp = p.rec.begin("core.rebalance")
	balanced, err := core.RebalanceClusters(p.ctx, st.Clustering, tree, core.Options{
		BalanceThreshold: defaultBalance, Workers: p.workers, Clock: p.rec.clock()})
	p.rec.end(sp)
	if err != nil {
		return nil, key, mapping.Plan{}, err
	}
	sp = p.rec.begin("core.schedule")
	sched, err := core.RescheduleStages(p.ctx, balanced, tree,
		core.ScheduleOptions{Alpha: defaultAlpha, Beta: defaultBeta}, st.Scheme == pipeline.InterProcessorSched)
	p.rec.end(sp)
	if err != nil {
		return nil, key, mapping.Plan{}, err
	}
	sp = p.rec.begin("mapping.encode")
	plan := encode(st.Scheme, sched, st.NumChunks)
	p.rec.end(sp)
	b, err := p.respond(server.MapResponse{Plan: plan, CacheKey: key.String(),
		Replanned: server.ReplanIncremental, ReusedStages: pipeline.ReusedStages()})
	return b, key, plan, err
}

// pipelineSpans are the span names that mean the planner ran.
var pipelineSpans = map[string]bool{
	"tags": true, "pipeline.distribute": true, "core.similarity": true, "core.cluster": true,
	"core.balance": true, "core.rebalance": true, "core.schedule": true, "mapping.encode": true,
}

// layerMetrics names the per-layer time metrics and the span each reads.
var layerMetrics = []struct{ metric, span string }{
	{"tags.ms", "tags"},
	{"core.similarity_ms", "core.similarity"},
	{"core.cluster_ms", "core.cluster"},
	{"core.balance_ms", "core.balance"},
	{"core.schedule_ms", "core.schedule"},
	{"mapping.encode_ms", "mapping.encode"},
	{"server.decode_ms", "server.decode"},
	{"server.respond_ms", "server.respond"},
	{"plancache.key_ms", "plancache.key"},
	{"server.compute_ms", "server.compute"},
	{"planstore.get_ms", "planstore.get"},
	{"planstore.put_ms", "planstore.put"},
}

// replay runs the workload's requests in process, traced, then again
// untraced for a prefix to measure the tracing overhead, and adds the
// per-layer metrics to layer.
func (s *runState) replay(rec *recorder, untracedP50 float64, layer map[string]metric) error {
	logDir := filepath.Join(s.dir, "replay-log")
	log, err := planstore.Open[mapping.Plan](planstore.Options{Dir: logDir, Schema: mapping.PlanSchemaVersion},
		planstore.Codec[mapping.Plan]{
			Encode: func(p mapping.Plan) ([]byte, error) { return json.Marshal(p) },
			Decode: func(b []byte) (mapping.Plan, error) {
				var p mapping.Plan
				err := json.Unmarshal(b, &p)
				return p, err
			},
		})
	if err != nil {
		return fmt.Errorf("opening the replay plan log: %w", err)
	}
	defer log.Close()
	p := &replayer{ctx: context.Background(), rec: rec, workers: runtime.GOMAXPROCS(0),
		works: make(map[string]workloads.Workload), log: log}

	replayOnce := func(traced bool, limit int) (*replayRun, error) {
		p.rec.on = traced
		defer func() { p.rec.on = true }()
		run := &replayRun{}
		var err error
		switch s.w.want {
		case wantFull:
			err = s.replayCold(p, run, limit, traced)
		case wantIncremental:
			err = s.replayDrift(p, run, limit, traced)
		default:
			err = s.replayHits(p, run, limit, traced)
		}
		return run, err
	}
	tr, err := replayOnce(true, len(s.w.timed))
	if err != nil {
		return err
	}
	sums, refs := normalize(tr.raw, tr.refIdx, tr.refs)
	setupRefs := make([]float64, len(tr.setupRefs))
	for j, r := range tr.setupRefs {
		setupRefs[j] = r.wallMS
	}
	// The same requests again with the recorder and clock off: the
	// difference is what tracing itself costs per request.
	prefix := map[provenance]int{wantFull: 20, wantIncremental: 300, wantCached: 4000}[s.w.want]
	if prefix > len(sums) {
		prefix = len(sums)
	}
	pr, err := replayOnce(false, prefix)
	if err != nil {
		return err
	}
	plain, _ := normalize(pr.raw, pr.refIdx, pr.refs)
	if prefix > len(plain) {
		prefix = len(plain)
	}
	diffs := make([]float64, prefix)
	for i := range diffs {
		diffs[i] = sums[i] - plain[i]
	}
	overhead := median(diffs)

	// Self time per span: its duration less its children's.
	self := make([]time.Duration, len(rec.spans))
	for i, sp := range rec.spans {
		self[i] += sp.dur
		if sp.parent >= 0 {
			self[sp.parent] -= sp.dur
		}
	}
	perReq := func(phase string, pairRef []float64, name string) float64 {
		if len(pairRef) == 0 {
			return 0
		}
		var total float64
		for i, sp := range rec.spans {
			if sp.name == name && sp.phase == phase && sp.req < len(pairRef) {
				total += ms(self[i]) * refNominalMS / pairRef[sp.req]
			}
		}
		return total / float64(len(pairRef))
	}
	for _, lm := range layerMetrics {
		v := perReq("timed", refs, lm.span)
		// cache_hits never runs the planner in its timed phase (checked
		// below); its planner layers are measured over the priming.
		if s.w.want == wantCached && pipelineSpans[lm.span] {
			v = perReq("setup", setupRefs, lm.span)
		}
		layer[lm.metric] = metric{v, "ms"}
	}
	layer["server.edge_ms"] = metric{untracedP50 - median(sums), "ms"}
	layer["bench.trace_overhead_ms"] = metric{overhead, "ms"}

	// Predictions about the workloads, checked on the traced replay.
	switch s.w.want {
	case wantFull:
		var pipe float64
		for name := range pipelineSpans {
			pipe += perReq("timed", refs, name)
		}
		share := (layer["core.balance_ms"].Value + layer["core.cluster_ms"].Value) / pipe
		verdict(share >= 0.8, "balance+cluster are %.3f of cold_plan's traced pipeline time (want >= 0.80)", share)
	case wantCached:
		n := 0
		for _, sp := range rec.spans {
			if sp.phase == "timed" && pipelineSpans[sp.name] {
				n++
			}
		}
		verdict(n == 0, "cache_hits' timed phase recorded %d pipeline spans (want 0)", n)
	case wantIncremental:
		r := layer["server.incremental_ratio"].Value
		verdict(r == 1, "server.incremental_ratio is %g in drift_repair (want 1)", r)
	}

	path := filepath.Join(filepath.Dir(s.dir), fmt.Sprintf("trace-%s.json", s.w.name))
	if err := writeChrome(path, rec); err != nil {
		return err
	}
	fmt.Printf("  spans: %d written to %s (Chrome trace_event JSON)\n", len(rec.spans), path)
	fmt.Printf("  tracing overhead: %.4f ms per request (median traced-minus-untraced difference over %d requests)\n", overhead, prefix)
	return nil
}

func verdict(ok bool, format string, args ...any) {
	status := "holds"
	if !ok {
		status = "MISSED: the workload is mis-sized for this commit"
	}
	fmt.Printf("  prediction: "+format+": %s\n", append(args, status)...)
}

// replayRun is one pass of the in-process replay.
type replayRun struct {
	raw       []float64   // per timed request: in-process ms
	refIdx    []int       // per timed request: its paired reference run
	refs      []refSample // the timed phase's reference runs
	setupRefs []refSample // one per priming request
}

// timedRef runs the reference before request i every refEvery requests.
func (s *runState) timedRef(run *replayRun, i int) {
	if i%s.w.refEvery == 0 {
		run.refs = append(run.refs, s.ref.measure())
	}
}

func (run *replayRun) add(d float64) {
	run.raw = append(run.raw, d)
	run.refIdx = append(run.refIdx, len(run.refs)-1)
}

// matchServed fails the run when the replay produced other plan bytes than
// the daemon served for the same request.
func (s *runState) matchServed(r request, planBytes []byte) {
	if first, ok := s.chk.first[r.key]; ok && first != sha256.Sum256(planBytes) {
		s.chk.fail("%s: the in-process replay's plan differs from the served plan", r.key[:12])
	}
}

func (s *runState) replayCold(p *replayer, run *replayRun, limit int, traced bool) error {
	for i, r := range s.w.timed[:limit] {
		if time.Now().After(s.deadline) {
			fmt.Printf("  WARNING: the replay hit its time cap after %d of %d requests\n", i, limit)
			break
		}
		s.timedRef(run, i)
		p.rec.at("timed", i)
		t := time.Now()
		root := p.rec.begin("request")
		planBytes, plan, _, err := p.full(r.body)
		p.rec.end(root)
		run.add(ms(time.Since(t)))
		if err != nil {
			return err
		}
		if traced {
			s.matchServed(r, planBytes)
			done := p.rec.offPath("planstore.put")
			p.log.Put(r.pk, plan)
			done()
		}
	}
	return nil
}

func (s *runState) replayDrift(p *replayer, run *replayRun, limit int, traced bool) error {
	states := make(map[string]*pipeline.State)
	anchorOf := func(r request) string {
		a := r.req
		a.Topology = ""
		b, _ := json.Marshal(a)
		return string(b)
	}
	for j, a := range s.w.setup {
		run.setupRefs = append(run.setupRefs, s.ref.measure())
		p.rec.at("setup", j)
		root := p.rec.begin("request")
		_, _, st, err := p.full(a.body)
		p.rec.end(root)
		if err != nil {
			return err
		}
		states[anchorOf(a)] = st
	}
	for i, r := range s.w.timed[:limit] {
		st := states[anchorOf(r)]
		if st == nil {
			return fmt.Errorf("%s: no anchor state", r.key[:12])
		}
		if time.Now().After(s.deadline) {
			fmt.Printf("  WARNING: the replay hit its time cap after %d of %d requests\n", i, limit)
			break
		}
		s.timedRef(run, i)
		p.rec.at("timed", i)
		t := time.Now()
		root := p.rec.begin("request")
		planBytes, key, plan, err := p.repair(r.body, st)
		p.rec.end(root)
		run.add(ms(time.Since(t)))
		if err != nil {
			return err
		}
		if traced {
			s.matchServed(r, planBytes)
			// The daemon appends every repaired plan to its log behind
			// the response: the write path beside cache_hits' reads.
			done := p.rec.offPath("planstore.put")
			p.log.Put(key, plan)
			done()
			if i%20 == 0 {
				// pipeline.Resume is the daemon's own repair entry point:
				// the layer-by-layer replay must match it byte for byte.
				tree, err := hierarchy.Parse(r.req.Topology)
				if err != nil {
					return err
				}
				done := p.rec.offPath("pipeline.resume")
				res, err := pipeline.Resume(p.ctx, st, pipeline.Config{Tree: tree})
				done()
				if err != nil {
					return err
				}
				rb, _ := json.Marshal(mapping.PlanOf(res))
				if !bytes.Equal(rb, planBytes) {
					s.chk.fail("%s: pipeline.Resume's plan differs from the layer replay's", r.key[:12])
				}
			}
		}
	}
	return nil
}

func (s *runState) replayHits(p *replayer, run *replayRun, limit int, traced bool) error {
	dir, err := os.MkdirTemp(s.dir, "replay-store")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	srv, err := server.NewServer(server.Config{
		PlanCacheSize: hotCache,
		Repair:        server.RepairConfig{Enabled: true, Tolerance: repairTolerance},
		Store:         server.StoreConfig{Dir: dir},
	})
	if err != nil {
		return err
	}
	defer srv.Close()
	computes := func() float64 {
		var b bytes.Buffer
		srv.Registry().WritePrometheus(&b)
		return parseMetrics(b.Bytes())["cachemapd_pipeline_computes_total"]
	}
	serve := func(r request) (*server.MapResponse, error) {
		req, _, err := p.decode(r.body)
		if err != nil {
			return nil, err
		}
		sp := p.rec.begin("server.compute")
		t := time.Now()
		resp, err := srv.ComputePlan(req)
		if err == nil && !resp.Cached {
			// A fresh compute: split it by its own stage ledger,
			// laid out in stage order from the call's start.
			at := t
			for _, st := range resp.Stages {
				d := time.Duration(st.DurationMS * float64(time.Millisecond))
				p.rec.record(stageSpan(st.Stage), at, d)
				at = at.Add(d)
			}
		}
		p.rec.end(sp)
		if err != nil {
			return nil, err
		}
		_, err = p.respond(*resp)
		return resp, err
	}
	for j, r := range s.w.setup {
		run.setupRefs = append(run.setupRefs, s.ref.measure())
		p.rec.at("setup", j)
		root := p.rec.begin("request")
		resp, err := serve(r)
		p.rec.end(root)
		if err != nil {
			return err
		}
		if traced {
			done := p.rec.offPath("planstore.put")
			p.log.Put(r.pk, resp.Plan)
			done()
		}
	}
	rr := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/debug/cache/snapshot", nil))
	if rr.Code != http.StatusOK {
		return fmt.Errorf("in-process snapshot: status %d", rr.Code)
	}
	before := computes()
	for i, r := range s.w.timed[:limit] {
		if time.Now().After(s.deadline) {
			fmt.Printf("  WARNING: the replay hit its time cap after %d of %d requests\n", i, limit)
			break
		}
		s.timedRef(run, i)
		p.rec.at("timed", i)
		t := time.Now()
		root := p.rec.begin("request")
		resp, err := serve(r)
		p.rec.end(root)
		run.add(ms(time.Since(t)))
		if err != nil {
			return err
		}
		if !resp.Cached {
			s.chk.fail("%s: in-process replay missed the plan cache", r.key[:12])
		}
		if traced {
			planBytes, _ := json.Marshal(resp.Plan)
			s.matchServed(r, planBytes)
			done := p.rec.offPath("planstore.get")
			_, ok := p.log.Get(r.pk)
			done()
			if !ok {
				return fmt.Errorf("%s: missing from the replay plan log", r.key[:12])
			}
		}
	}
	if after := computes(); after != before {
		s.chk.fail("in-process replay ran %g pipeline computes in the timed phase", after-before)
	}
	return nil
}

// stageSpan maps a pipeline stage ledger name to the span (and metric)
// name of the layer that runs it.
func stageSpan(stage string) string {
	switch stage {
	case pipeline.StageTags:
		return "tags"
	case pipeline.StageSimilarity, pipeline.StageCluster, pipeline.StageBalance, pipeline.StageSchedule:
		return "core." + stage
	case pipeline.StageEncode:
		return "mapping.encode"
	}
	return "pipeline." + stage
}

// writeChrome writes the spans as Chrome trace_event JSON, the format of
// cachemapd's /debug/traces/{id}: one complete ("X") event per span, with
// its request and parent in args; tid is the request, so each request's
// spans stack on one row.
func writeChrome(path string, rec *recorder) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	type event struct {
		Name string            `json:"name"`
		Ph   string            `json:"ph"`
		Ts   float64           `json:"ts"`
		Dur  float64           `json:"dur"`
		Pid  int               `json:"pid"`
		Tid  int               `json:"tid"`
		Args map[string]string `json:"args"`
	}
	enc := json.NewEncoder(w)
	w.WriteString(`{"displayTimeUnit":"ms","traceEvents":[`)
	for i, sp := range rec.spans {
		if i > 0 {
			w.WriteByte(',')
		}
		args := map[string]string{"span_id": strconv.Itoa(i), "phase": sp.phase, "request": strconv.Itoa(sp.req)}
		if sp.parent >= 0 {
			args["parent_id"] = strconv.Itoa(sp.parent)
		}
		pid := map[string]int{"setup": 1, "timed": 2, "check": 3}[sp.phase]
		if err := enc.Encode(event{Name: sp.name, Ph: "X", Ts: float64(sp.start) / 1e3,
			Dur: float64(sp.dur) / 1e3, Pid: pid, Tid: sp.req, Args: args}); err != nil {
			f.Close()
			return err
		}
	}
	w.WriteString("]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
