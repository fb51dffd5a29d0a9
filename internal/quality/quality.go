// Package quality measures the quality of the plans cachemapd serves,
// not just the latency of producing them. A deterministic fraction of
// served responses is shadow-simulated: the response's plan is re-run
// through iosim off the request path (its own worker goroutine and a
// bounded queue, so sampling can never add request latency or starve
// admission) under a hard iteration cap that bounds the cost of each
// shadow pass. Results — per-level miss rates, load imbalance, estimated
// execution time — land in a per-workload-family ring ledger keyed by
// serve mode, so the locality cost of every degradation and repair path
// becomes a first-class measured quantity. The ledger is the observed
// input the ROADMAP's online re-mapping loop will consume.
package quality

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/hierarchy"
	"repro/internal/iosim"
	"repro/internal/mapping"
)

// Serve-mode labels. Every served response is exactly one of these; the
// ledger and the missrate gauges are keyed by them.
const (
	ModeFull             = "full"              // complete pipeline run
	ModeCached           = "cached"            // content-addressed cache hit
	ModeIncremental      = "incremental"       // repair fast-path (stale plan resumed)
	ModeDegradedStale    = "degraded_stale"    // shed: served a stale plan as-is
	ModeDegradedFallback = "degraded_fallback" // shed: served the trivial fallback plan
)

// Modes lists the serve-mode labels in stable display order.
func Modes() []string {
	return []string{ModeFull, ModeCached, ModeIncremental, ModeDegradedStale, ModeDegradedFallback}
}

// Sample is one shadow-simulation candidate: everything needed to re-run
// a served plan through iosim. The plan is carried as its wire JSON and
// only decoded on the worker goroutine, so offering a sample costs the
// request path a counter increment and a channel send.
type Sample struct {
	TraceID string
	Family  string
	Mode    string
	Tree    *hierarchy.Tree
	Prog    iosim.Program
	// Plan is the served plan's JSON (a mapping.Plan); the sampler only
	// reads it.
	Plan []byte
	// Params is the base simulation parameter set; the sampler strips
	// tracing and applies its iteration cap before running.
	Params iosim.Params
}

// Record is the outcome of one shadow simulation.
type Record struct {
	TraceID string `json:"trace_id"`
	Family  string `json:"family"`
	Mode    string `json:"mode"`
	// MissRates[k-1] is the aggregate miss rate of paper cache level Lk.
	MissRates  []float64 `json:"miss_rates"`
	Imbalance  float64   `json:"imbalance"`
	ExecMS     float64   `json:"exec_ms"`
	Iterations int64     `json:"iterations"`
	// Truncated marks a shadow run stopped by the iteration cap; its
	// metrics cover the executed prefix only.
	Truncated bool `json:"truncated,omitempty"`
	// SimMS is the wall-clock cost of the shadow pass itself.
	SimMS float64 `json:"sim_ms"`
	Err   string  `json:"err,omitempty"`
}

// Counts are the sampler's decision counters: Sampled responses were
// enqueued for shadow simulation, Skipped failed the deterministic draw,
// Overflow passed the draw but found the queue full (shadow work is shed,
// never queued unboundedly).
type Counts struct {
	Sampled  uint64 `json:"sampled"`
	Skipped  uint64 `json:"skipped"`
	Overflow uint64 `json:"overflow"`
}

// Config configures a Sampler. Zero values select the documented defaults.
type Config struct {
	// Rate is the sampled fraction of served responses in [0, 1]. At
	// rate <= 0 the sampler is inert: no worker goroutine is started and
	// Offer never enqueues.
	Rate float64
	// Seed seeds the deterministic per-arrival draw; the same seed and
	// arrival order always select the same responses.
	Seed uint64
	// OnRecord, when non-nil, is invoked on the worker goroutine with
	// every completed record, after the ledger is updated. The server
	// uses it to set missrate gauges and backfill request events.
	OnRecord func(Record)
}

const (
	// queueCap bounds the shadow-work queue. A full queue sheds the
	// sample and increments Counts.Overflow.
	queueCap = 64
	// ringSize bounds each (family, mode) ledger ring.
	ringSize = 64
	// maxIterations caps each shadow simulation.
	maxIterations = 65536
)

// Sampler draws a deterministic fraction of served responses and shadow-
// simulates them on a single dedicated worker goroutine. All methods are
// safe for concurrent use.
type Sampler struct {
	rate     float64
	seed     uint64
	onRecord func(Record)
	onPanic  func(p any, stack []byte)
	ledger   *Ledger

	arrivals atomic.Uint64
	sampled  atomic.Uint64
	skipped  atomic.Uint64
	overflow atomic.Uint64

	queue  chan Sample
	stop   chan struct{}
	done   chan struct{}
	closed atomic.Bool
}

// NewSampler builds a sampler. At cfg.Rate <= 0 it returns an inert
// sampler that owns no goroutine and never enqueues — the zero-cost
// configuration for latency-sensitive deployments. The worker recovers a
// panic in a shadow simulation or in cfg.OnRecord and goes on; onPanic,
// when non-nil, receives each one's value and stack.
func NewSampler(cfg Config, onPanic func(p any, stack []byte)) *Sampler {
	s := &Sampler{
		rate:     cfg.Rate,
		seed:     cfg.Seed,
		onRecord: cfg.OnRecord,
		onPanic:  onPanic,
		ledger:   NewLedger(),
	}
	if cfg.Rate > 0 {
		s.queue = make(chan Sample, queueCap)
		s.stop = make(chan struct{})
		s.done = make(chan struct{})
		go s.loop()
	}
	return s
}

// Active reports whether the sampler owns a worker (rate > 0, not closed).
func (s *Sampler) Active() bool { return s.queue != nil && !s.closed.Load() }

// Ledger returns the sampler's quality ledger.
func (s *Sampler) Ledger() *Ledger { return s.ledger }

// Counts snapshots the decision counters.
func (s *Sampler) Counts() Counts {
	return Counts{
		Sampled:  s.sampled.Load(),
		Skipped:  s.skipped.Load(),
		Overflow: s.overflow.Load(),
	}
}

// Offer applies the deterministic sampling decision to one served
// response and, when drawn, hands it to the shadow worker. It never
// blocks: a full queue sheds the sample. Returns whether the sample was
// enqueued.
func (s *Sampler) Offer(smp Sample) bool {
	if s.queue == nil {
		return false
	}
	n := s.arrivals.Add(1)
	if !Drawn(s.seed, n, s.rate) {
		s.skipped.Add(1)
		return false
	}
	if s.closed.Load() {
		s.overflow.Add(1)
		return false
	}
	select {
	case s.queue <- smp:
		s.sampled.Add(1)
		return true
	default:
		s.overflow.Add(1)
		return false
	}
}

// Close stops the worker and waits for it to exit. Safe to call more
// than once and on inert samplers.
func (s *Sampler) Close() {
	if s.queue == nil || !s.closed.CompareAndSwap(false, true) {
		return
	}
	close(s.stop)
	<-s.done
}

// Drawn is the deterministic per-arrival sampling decision: arrival n is
// sampled iff the splitmix64 mix of (seed, n), mapped to a uniform in
// [0, 1), falls below rate. The same (seed, rate, arrival order) always
// selects the same set — tests and replayed traffic sample identically.
func Drawn(seed, n uint64, rate float64) bool {
	if rate >= 1 {
		return true
	}
	u := float64(splitmix64(seed+n)>>11) / float64(1<<53)
	return u < rate
}

func (s *Sampler) loop() {
	defer close(s.done)
	for {
		select {
		case <-s.stop:
			return
		case smp := <-s.queue:
			s.record(s.runOne(smp))
		}
	}
}

// panicked reports a panic the worker recovered; call it from the
// deferred function that recovered it, so the stack still reaches the
// panic.
func (s *Sampler) panicked(p any) {
	if s.onPanic != nil {
		s.onPanic(p, debug.Stack())
	}
}

// record adds rec to the ledger and hands it to onRecord, recovering a
// panic in either.
func (s *Sampler) record(rec Record) {
	defer func() {
		if p := recover(); p != nil {
			s.panicked(p)
		}
	}()
	s.ledger.Add(rec)
	if s.onRecord != nil {
		s.onRecord(rec)
	}
}

// runOne executes one bounded shadow simulation. Plan decoding happens
// here, on the worker, never on a request goroutine. A panic becomes the
// sample's error verdict.
func (s *Sampler) runOne(smp Sample) (rec Record) {
	start := time.Now()
	rec = Record{TraceID: smp.TraceID, Family: smp.Family, Mode: smp.Mode}
	defer func() {
		if p := recover(); p != nil {
			rec = Record{TraceID: smp.TraceID, Family: smp.Family, Mode: smp.Mode, Err: fmt.Sprintf("panic: %v", p)}
			s.panicked(p)
		}
	}()
	if smp.Plan == nil || smp.Tree == nil {
		rec.Err = "quality: sample lacks plan or tree"
		return rec
	}
	var plan mapping.Plan
	if err := json.Unmarshal(smp.Plan, &plan); err != nil {
		rec.Err = fmt.Sprintf("decode plan: %v", err)
		return rec
	}
	asg, err := plan.Assignment()
	if err != nil {
		rec.Err = fmt.Sprintf("decode plan: %v", err)
		return rec
	}
	p := smp.Params
	p.TraceSink = nil
	p.MaxIterations = maxIterations
	m, err := iosim.RunCtx(context.Background(), smp.Tree, smp.Prog, asg, p)
	rec.SimMS = float64(time.Since(start)) / float64(time.Millisecond)
	if err != nil {
		rec.Err = err.Error()
		return rec
	}
	// Paper levels run L1 (client caches, tree level Height) through
	// L(Height+1) (the root).
	rec.MissRates = make([]float64, m.Height+1)
	for k := 1; k <= m.Height+1; k++ {
		rec.MissRates[k-1] = m.MissRateL(k)
	}
	rec.Imbalance = m.Imbalance()
	rec.ExecMS = m.ExecTimeMS()
	rec.Iterations = m.Iterations
	rec.Truncated = m.Truncated
	return rec
}

// splitmix64 is the finalizing mix of the SplitMix64 generator — the same
// cheap uint64 bijection package faults uses for its deterministic draws.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Ledger is the per-workload-family quality ledger: for each (family,
// serve mode) pair it keeps a bounded ring of the most recent shadow
// records plus lifetime totals.
type Ledger struct {
	mu    sync.Mutex
	cells map[string]map[string]*cell // family → mode → ring
}

type cell struct {
	recs  []Record // ring storage, filled up to ring size
	next  int      // next overwrite position once full
	total int64    // lifetime records
	errs  int64    // lifetime errored records
}

// NewLedger builds a ledger whose cells each keep the last ringSize
// records.
func NewLedger() *Ledger {
	return &Ledger{cells: make(map[string]map[string]*cell)}
}

// Add appends one record to its (family, mode) ring.
func (l *Ledger) Add(rec Record) {
	l.mu.Lock()
	defer l.mu.Unlock()
	modes := l.cells[rec.Family]
	if modes == nil {
		modes = make(map[string]*cell)
		l.cells[rec.Family] = modes
	}
	c := modes[rec.Mode]
	if c == nil {
		c = &cell{}
		modes[rec.Mode] = c
	}
	c.total++
	if rec.Err != "" {
		c.errs++
	}
	if len(c.recs) < ringSize {
		c.recs = append(c.recs, rec)
		return
	}
	c.recs[c.next] = rec
	c.next = (c.next + 1) % ringSize
}

// ModeStats summarizes one (family, mode) ring: windowed means over the
// ring's non-errored records plus lifetime totals.
type ModeStats struct {
	// Samples is the lifetime record count; Window is how many records
	// the ring currently holds (means below cover the window only).
	Samples int64 `json:"samples"`
	Window  int   `json:"window"`
	// MissRates[k-1] is the windowed mean miss rate of paper level Lk.
	MissRates []float64 `json:"miss_rates"`
	Imbalance float64   `json:"imbalance"`
	ExecMS    float64   `json:"exec_ms"`
	Truncated int64     `json:"truncated,omitempty"`
	Errors    int64     `json:"errors,omitempty"`
	// LastTraceID links the most recent sampled request for this cell.
	LastTraceID string `json:"last_trace_id,omitempty"`
}

// Snapshot is the JSON form of a ledger: family → serve mode → stats.
type Snapshot map[string]map[string]ModeStats

// Snapshot summarizes every (family, mode) ring.
func (l *Ledger) Snapshot() Snapshot {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make(Snapshot, len(l.cells))
	for fam, modes := range l.cells {
		out[fam] = make(map[string]ModeStats, len(modes))
		for mode, c := range modes {
			out[fam][mode] = c.stats()
		}
	}
	return out
}

func (c *cell) stats() ModeStats {
	st := ModeStats{Samples: c.total, Window: len(c.recs), Errors: c.errs}
	var good int
	var last Record
	var lastSeen bool
	for i, rec := range c.recs {
		// The newest record is the one just before the overwrite cursor
		// (or the last appended while the ring is still filling).
		if i == (c.next-1+len(c.recs))%len(c.recs) {
			last, lastSeen = rec, true
		}
		if rec.Err != "" {
			continue
		}
		good++
		if rec.Truncated {
			st.Truncated++
		}
		for len(st.MissRates) < len(rec.MissRates) {
			st.MissRates = append(st.MissRates, 0)
		}
		for k, v := range rec.MissRates {
			st.MissRates[k] += v
		}
		st.Imbalance += rec.Imbalance
		st.ExecMS += rec.ExecMS
	}
	if good > 0 {
		for k := range st.MissRates {
			st.MissRates[k] /= float64(good)
		}
		st.Imbalance /= float64(good)
		st.ExecMS /= float64(good)
	}
	if lastSeen {
		st.LastTraceID = last.TraceID
	}
	return st
}
