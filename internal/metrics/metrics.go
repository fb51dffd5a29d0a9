// Package metrics is a dependency-free instrumentation registry for the
// serving subsystem: monotone counters, gauges and fixed-bucket latency
// histograms, exposed in the Prometheus text exposition format (version
// 0.0.4) so any standard scraper can consume `GET /metrics` from
// cmd/cachemapd.
//
// Every instrument is a family of labelled series; a scalar is a family
// without labels, holding one series. One family type keeps and renders
// the series of every kind.
//
// All instruments are safe for concurrent use; the hot paths (Inc, Add,
// Observe) are single atomic operations, after a read-locked lookup for a
// vec, and never allocate.
package metrics

import (
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry holds a set of named instruments and renders them in
// registration order.
type Registry struct {
	mu    sync.Mutex
	names []string
	insts map[string]instrument
}

type instrument interface {
	write(w io.Writer, name string)
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{insts: make(map[string]instrument)}
}

// register adds in under name, or returns the instrument already
// registered there. It panics when that one is of another kind: a
// Counter's name cannot come back as a CounterVec.
func register[I instrument](r *Registry, name string, in I) I {
	r.mu.Lock()
	defer r.mu.Unlock()
	got, ok := r.insts[name]
	if !ok {
		r.names = append(r.names, name)
		r.insts[name] = in
		return in
	}
	same, ok := got.(I)
	if !ok {
		panic(fmt.Sprintf("metrics: %q already registered with a different type", name))
	}
	return same
}

// Counter registers (or returns the existing) monotone counter.
func (r *Registry) Counter(name, help string) *Counter {
	return register(r, name, newFamily(help, "counter", nil, func() *Counter { return new(Counter) })).with(nil)
}

// Gauge registers (or returns the existing) gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	return register(r, name, newFamily(help, "gauge", nil, func() *Gauge { return new(Gauge) })).with(nil)
}

// Histogram registers (or returns the existing) histogram with the given
// upper bucket bounds (ascending; +Inf is implicit).
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	return register(r, name, newFamily(help, "histogram", nil, histograms(buckets))).with(nil)
}

// GaugeFunc registers a gauge whose value is sampled lazily — fn runs at
// scrape time, never between scrapes. fn must be safe for concurrent use.
// Use it for values the runtime already maintains (goroutine counts, heap
// bytes) where eager tracking would duplicate work.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	register(r, name, newFamily(help, "gauge", nil, func() valueFunc { return fn }))
}

// CounterFunc is GaugeFunc with counter semantics: fn must report a value
// that only grows (e.g. a cumulative total read from runtime/metrics).
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	register(r, name, newFamily(help, "counter", nil, func() valueFunc { return fn }))
}

// CountFunc is CounterFunc for a count some other type keeps: fn's whole
// number renders as a Counter's does, where CounterFunc's float renders a
// million and more in e-notation.
func (r *Registry) CountFunc(name, help string, fn func() int64) {
	register(r, name, newFamily(help, "counter", nil, func() countFunc { return fn }))
}

// GaugeVec registers (or returns the existing) family of float-valued
// gauges partitioned by one or more labels. Gauges for new label tuples
// materialize on first use and render as `name{l1="v1",l2="v2"}` series.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	return register(r, name, &GaugeVec{newFamily(help, "gauge", labels, func() *floatGauge { return new(floatGauge) })})
}

// CounterVec registers (or returns the existing) family of counters
// partitioned by one label. Counters for new label values materialize on
// first use and render as `name{label="value"}` series.
func (r *Registry) CounterVec(name, help, label string) *CounterVec {
	return register(r, name, &CounterVec{newFamily(help, "counter", []string{label}, func() *Counter { return new(Counter) })})
}

// HistogramVec registers (or returns the existing) family of histograms
// partitioned by one label. Histograms for new label values materialize on
// first use and render as `name_bucket{label="value",le="..."}` series.
func (r *Registry) HistogramVec(name, help, label string, buckets []float64) *HistogramVec {
	return register(r, name, &HistogramVec{newFamily(help, "histogram", []string{label}, histograms(buckets))})
}

// WritePrometheus renders every instrument in the Prometheus text format.
func (r *Registry) WritePrometheus(w io.Writer) {
	r.mu.Lock()
	names := slices.Clone(r.names)
	insts := make([]instrument, len(names))
	for i, n := range names {
		insts[i] = r.insts[n]
	}
	r.mu.Unlock()
	for i, n := range names {
		insts[i].write(w, n)
	}
}

// series is one sample stream of a family: it renders its own sample
// lines under name, with labels (`l1="v1",l2="v2"`, or "" for none).
type series interface {
	writeSample(w io.Writer, name, labels string)
}

// family is one instrument: its series, one per tuple of label values,
// created on first use and rendered in first-use order. A family without
// labels creates its one series at registration, so a scalar renders its
// zero value before its first use; a vec never used renders only its
// HELP and TYPE lines. Lookups take a read lock only.
type family[S series] struct {
	help      string
	typ       string // the TYPE line's kind: counter, gauge or histogram
	labels    []string
	newSeries func() S

	mu    sync.RWMutex
	byKey map[string]S // label values joined with \x1f, which no value may contain
	order []S          // the series in first-use order
	pairs []string     // the rendered label pairs of each series in order
}

func newFamily[S series](help, typ string, labels []string, newSeries func() S) *family[S] {
	f := &family[S]{
		help:      help,
		typ:       typ,
		labels:    slices.Clone(labels),
		newSeries: newSeries,
		byKey:     make(map[string]S),
	}
	if len(labels) == 0 {
		f.with(nil)
	}
	return f
}

// with returns the series for the given label values, creating it on
// first use. The number of values must match the label count.
func (f *family[S]) with(values []string) S {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("metrics: family with labels %v given %d values", f.labels, len(values)))
	}
	key := strings.Join(values, "\x1f")
	f.mu.RLock()
	s, ok := f.byKey[key]
	f.mu.RUnlock()
	if ok {
		return s
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.byKey[key]; ok {
		return s
	}
	var b strings.Builder
	for i, v := range values {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", f.labels[i], v)
	}
	s = f.newSeries()
	f.byKey[key] = s
	f.order = append(f.order, s)
	f.pairs = append(f.pairs, b.String())
	return s
}

func (f *family[S]) write(w io.Writer, name string) {
	f.mu.RLock()
	order, pairs := slices.Clone(f.order), slices.Clone(f.pairs)
	f.mu.RUnlock()
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, f.help, name, f.typ)
	for i, s := range order {
		s.writeSample(w, name, pairs[i])
	}
}

// braced renders label pairs as a sample's label set: "" for none.
func braced(labels string) string {
	if labels == "" {
		return ""
	}
	return "{" + labels + "}"
}

// formatValue renders a sample. strconv spells the non-finite values as
// the Prometheus text format does (NaN, +Inf, -Inf).
func formatValue(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// Counter is a monotonically increasing counter.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds delta (must be >= 0 to keep the counter monotone).
func (c *Counter) Add(delta int64) { c.v.Add(delta) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

func (c *Counter) writeSample(w io.Writer, name, labels string) {
	fmt.Fprintf(w, "%s%s %d\n", name, braced(labels), c.Value())
}

// Gauge is a value that can go up and down.
type Gauge struct {
	v atomic.Int64
}

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

func (g *Gauge) writeSample(w io.Writer, name, labels string) {
	fmt.Fprintf(w, "%s%s %d\n", name, braced(labels), g.Value())
}

// floatGauge is a GaugeVec's series: float64 bits held atomically.
type floatGauge struct {
	bits atomic.Uint64
}

func (g *floatGauge) writeSample(w io.Writer, name, labels string) {
	fmt.Fprintf(w, "%s%s %s\n", name, braced(labels), formatValue(math.Float64frombits(g.bits.Load())))
}

// valueFunc is a GaugeFunc's or CounterFunc's series, sampled at scrape
// time.
type valueFunc func() float64

func (f valueFunc) writeSample(w io.Writer, name, labels string) {
	fmt.Fprintf(w, "%s%s %s\n", name, braced(labels), formatValue(f()))
}

// countFunc is a CountFunc's series, sampled at scrape time.
type countFunc func() int64

func (f countFunc) writeSample(w io.Writer, name, labels string) {
	fmt.Fprintf(w, "%s%s %d\n", name, braced(labels), f())
}

// Histogram counts observations into cumulative fixed buckets and tracks
// their sum, Prometheus-style. Each bucket additionally retains its most
// recent exemplar — the trace ID and value of the last observation that
// landed in it — rendered OpenMetrics-style after the bucket line, so a
// p99 spike in a scrape links directly to a retained request trace.
type Histogram struct {
	bounds    []float64 // ascending upper bounds, +Inf implicit; shared by the family's series
	counts    []atomic.Int64
	exemplars []atomic.Pointer[Exemplar] // per bucket, incl. the +Inf overflow
	sumBits   atomic.Uint64              // float64 bits, CAS-accumulated
	count     atomic.Int64
}

// Exemplar is one observation retained alongside its bucket count: the
// value observed and the trace ID of the request that produced it.
type Exemplar struct {
	TraceID string
	Value   float64
}

// DefaultLatencyBuckets spans microseconds to tens of seconds; values are
// in seconds, the Prometheus convention for *_seconds histograms.
func DefaultLatencyBuckets() []float64 {
	return []float64{
		1e-6, 1e-5, 1e-4, 5e-4, 1e-3, 5e-3, 1e-2, 5e-2, 0.1, 0.5, 1, 5, 10, 30,
	}
}

// histograms returns the constructor of a histogram family's series: the
// buckets are sorted once, and every series shares that copy.
func histograms(buckets []float64) func() *Histogram {
	bounds := slices.Clone(buckets)
	sort.Float64s(bounds)
	return func() *Histogram { return newHistogram(bounds) }
}

func newHistogram(bounds []float64) *Histogram {
	return &Histogram{
		bounds:    bounds,
		counts:    make([]atomic.Int64, len(bounds)+1),
		exemplars: make([]atomic.Pointer[Exemplar], len(bounds)+1),
	}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		new := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, new) {
			return
		}
	}
}

// ObserveWithExemplar records one value and retains (traceID, v) as the
// bucket's exemplar, replacing the previous one. An empty traceID degrades
// to a plain Observe. Lock-free: one extra atomic pointer store.
func (h *Histogram) ObserveWithExemplar(v float64, traceID string) {
	if traceID != "" {
		i := sort.SearchFloat64s(h.bounds, v)
		h.exemplars[i].Store(&Exemplar{TraceID: traceID, Value: v})
	}
	h.Observe(v)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// writeSample renders the cumulative buckets, each followed by its
// exemplar in the OpenMetrics form ` # {trace_id="..."} value`, then the
// sum and the count.
func (h *Histogram) writeSample(w io.Writer, name, labels string) {
	le := labels
	if le != "" {
		le += ","
	}
	var cum int64
	for i := range h.counts {
		bound := math.Inf(1)
		if i < len(h.bounds) {
			bound = h.bounds[i]
		}
		cum += h.counts[i].Load()
		var exemplar string
		if e := h.exemplars[i].Load(); e != nil {
			exemplar = fmt.Sprintf(" # {trace_id=%q} %s", e.TraceID, formatValue(e.Value))
		}
		fmt.Fprintf(w, "%s_bucket{%sle=%q} %d%s\n", name, le, formatValue(bound), cum, exemplar)
	}
	fmt.Fprintf(w, "%s_sum%s %s\n", name, braced(labels), formatValue(h.Sum()))
	fmt.Fprintf(w, "%s_count%s %d\n", name, braced(labels), h.Count())
}

// CounterVec is a family of Counters partitioned by one label (e.g.
// degradation mode, fault site). Lookups take a read lock only; the
// returned Counter's Inc/Add are single atomics.
type CounterVec struct{ *family[*Counter] }

// With returns the counter for the given label value, creating it on first
// use.
func (cv *CounterVec) With(values ...string) *Counter { return cv.with(values) }

// Inc adds one under the given label value.
func (cv *CounterVec) Inc(value string) { cv.With(value).Inc() }

// HistogramVec is a family of Histograms sharing one bucket layout,
// partitioned by one label (e.g. per pipeline stage). With scrapes rare
// and observations hot, lookups take a read lock only.
type HistogramVec struct{ *family[*Histogram] }

// With returns the histogram for the given label value, creating it on
// first use.
func (hv *HistogramVec) With(values ...string) *Histogram { return hv.with(values) }

// Observe records one value under the given label value.
func (hv *HistogramVec) Observe(value string, v float64) { hv.With(value).Observe(v) }

// GaugeVec is a family of float-valued gauges partitioned by one or more
// labels (e.g. cache level × serve mode). Lookups take a read lock only;
// Set on a materialized tuple is a single atomic store.
type GaugeVec struct{ *family[*floatGauge] }

// Set replaces the gauge value for the given label tuple, materializing the
// series on first use. The number of values must match the label count.
func (gv *GaugeVec) Set(v float64, labelValues ...string) {
	gv.with(labelValues).bits.Store(math.Float64bits(v))
}
