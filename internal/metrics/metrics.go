// Package metrics is a dependency-free instrumentation registry for the
// serving subsystem: monotone counters, gauges and fixed-bucket latency
// histograms, exposed in the Prometheus text exposition format (version
// 0.0.4) so any standard scraper can consume `GET /metrics` from
// cmd/cachemapd.
//
// All instruments are safe for concurrent use; the hot paths (Inc, Add,
// Observe) are single atomic operations and never allocate.
package metrics

import (
	"fmt"
	"io"
	"math"
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
	write(w io.Writer, name, help string)
	helpText() string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{insts: make(map[string]instrument)}
}

func (r *Registry) register(name, help string, in instrument) instrument {
	r.mu.Lock()
	defer r.mu.Unlock()
	if got, ok := r.insts[name]; ok {
		return got
	}
	r.names = append(r.names, name)
	r.insts[name] = in
	return in
}

// Counter registers (or returns the existing) monotone counter.
func (r *Registry) Counter(name, help string) *Counter {
	in := r.register(name, help, &Counter{help: help})
	c, ok := in.(*Counter)
	if !ok {
		panic(fmt.Sprintf("metrics: %q already registered with a different type", name))
	}
	return c
}

// Gauge registers (or returns the existing) gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	in := r.register(name, help, &Gauge{help: help})
	g, ok := in.(*Gauge)
	if !ok {
		panic(fmt.Sprintf("metrics: %q already registered with a different type", name))
	}
	return g
}

// Histogram registers (or returns the existing) histogram with the given
// upper bucket bounds (ascending; +Inf is implicit).
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	in := r.register(name, help, newHistogram(help, buckets))
	h, ok := in.(*Histogram)
	if !ok {
		panic(fmt.Sprintf("metrics: %q already registered with a different type", name))
	}
	return h
}

// GaugeFunc registers a gauge whose value is sampled lazily — fn runs at
// scrape time, never between scrapes. fn must be safe for concurrent use.
// Use it for values the runtime already maintains (goroutine counts, heap
// bytes) where eager tracking would duplicate work.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	in := r.register(name, help, &funcInstrument{help: help, typ: "gauge", fn: fn})
	if _, ok := in.(*funcInstrument); !ok {
		panic(fmt.Sprintf("metrics: %q already registered with a different type", name))
	}
}

// CounterFunc is GaugeFunc with counter semantics: fn must report a value
// that only grows (e.g. a cumulative total read from runtime/metrics).
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	in := r.register(name, help, &funcInstrument{help: help, typ: "counter", fn: fn})
	if _, ok := in.(*funcInstrument); !ok {
		panic(fmt.Sprintf("metrics: %q already registered with a different type", name))
	}
}

// GaugeVec registers (or returns the existing) family of float-valued
// gauges partitioned by one or more labels. Gauges for new label tuples
// materialize on first use and render as `name{l1="v1",l2="v2"}` series.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	in := r.register(name, help, newGaugeVec(help, labels))
	gv, ok := in.(*GaugeVec)
	if !ok {
		panic(fmt.Sprintf("metrics: %q already registered with a different type", name))
	}
	return gv
}

// CounterVec registers (or returns the existing) family of counters
// partitioned by one label. Counters for new label values materialize on
// first use and render as `name{label="value"}` series.
func (r *Registry) CounterVec(name, help, label string) *CounterVec {
	in := r.register(name, help, newCounterVec(help, label))
	cv, ok := in.(*CounterVec)
	if !ok {
		panic(fmt.Sprintf("metrics: %q already registered with a different type", name))
	}
	return cv
}

// HistogramVec registers (or returns the existing) family of histograms
// partitioned by one label. Histograms for new label values materialize on
// first use and render as `name_bucket{label="value",le="..."}` series.
func (r *Registry) HistogramVec(name, help, label string, buckets []float64) *HistogramVec {
	in := r.register(name, help, newHistogramVec(help, label, buckets))
	hv, ok := in.(*HistogramVec)
	if !ok {
		panic(fmt.Sprintf("metrics: %q already registered with a different type", name))
	}
	return hv
}

// WritePrometheus renders every instrument in the Prometheus text format.
func (r *Registry) WritePrometheus(w io.Writer) {
	r.mu.Lock()
	names := append([]string(nil), r.names...)
	insts := make([]instrument, len(names))
	for i, n := range names {
		insts[i] = r.insts[n]
	}
	r.mu.Unlock()
	for i, n := range names {
		insts[i].write(w, n, insts[i].helpText())
	}
}

// Counter is a monotonically increasing counter.
type Counter struct {
	v    atomic.Int64
	help string
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds delta (must be >= 0 to keep the counter monotone).
func (c *Counter) Add(delta int64) { c.v.Add(delta) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

func (c *Counter) helpText() string { return c.help }

func (c *Counter) write(w io.Writer, name, help string) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, c.Value())
}

// Gauge is a value that can go up and down.
type Gauge struct {
	v    atomic.Int64
	help string
}

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

func (g *Gauge) helpText() string { return g.help }

func (g *Gauge) write(w io.Writer, name, help string) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, g.Value())
}

// funcInstrument renders a lazily sampled value as a gauge or counter.
// Non-finite samples render in the Prometheus text forms NaN/+Inf/-Inf.
type funcInstrument struct {
	help string
	typ  string
	fn   func() float64
}

func (f *funcInstrument) helpText() string { return f.help }

func (f *funcInstrument) write(w io.Writer, name, help string) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s %s\n",
		name, help, name, f.typ, name, formatValue(f.fn()))
}

// formatValue renders a sample, mapping non-finite values to the spellings
// the Prometheus text format defines (NaN, +Inf, -Inf).
func formatValue(v float64) string {
	switch {
	case math.IsNaN(v):
		return "NaN"
	case math.IsInf(v, +1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Histogram counts observations into cumulative fixed buckets and tracks
// their sum, Prometheus-style. Each bucket additionally retains its most
// recent exemplar — the trace ID and value of the last observation that
// landed in it — rendered OpenMetrics-style after the bucket line, so a
// p99 spike in a scrape links directly to a retained request trace.
type Histogram struct {
	bounds    []float64 // ascending upper bounds, +Inf implicit
	counts    []atomic.Int64
	exemplars []atomic.Pointer[Exemplar] // per bucket, incl. the +Inf overflow
	sumBits   atomic.Uint64              // float64 bits, CAS-accumulated
	count     atomic.Int64
	help      string
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

func newHistogram(help string, buckets []float64) *Histogram {
	bounds := append([]float64(nil), buckets...)
	sort.Float64s(bounds)
	return &Histogram{
		bounds:    bounds,
		counts:    make([]atomic.Int64, len(bounds)+1),
		exemplars: make([]atomic.Pointer[Exemplar], len(bounds)+1),
		help:      help,
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

func (h *Histogram) helpText() string { return h.help }

func (h *Histogram) write(w io.Writer, name, help string) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
	var cum int64
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(w, "%s_bucket{le=%q} %d%s\n", name, formatBound(b), cum, h.exemplarSuffix(i))
	}
	cum += h.counts[len(h.bounds)].Load()
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d%s\n", name, cum, h.exemplarSuffix(len(h.bounds)))
	fmt.Fprintf(w, "%s_sum %s\n", name, strconv.FormatFloat(h.Sum(), 'g', -1, 64))
	fmt.Fprintf(w, "%s_count %d\n", name, h.Count())
}

// exemplarSuffix renders bucket i's exemplar in the OpenMetrics form
// ` # {trace_id="..."} value`, or "" when the bucket has none.
func (h *Histogram) exemplarSuffix(i int) string {
	e := h.exemplars[i].Load()
	if e == nil {
		return ""
	}
	return fmt.Sprintf(" # {trace_id=%q} %s", e.TraceID, strconv.FormatFloat(e.Value, 'g', -1, 64))
}

func formatBound(b float64) string { return strconv.FormatFloat(b, 'g', -1, 64) }

// CounterVec is a family of Counters partitioned by a single label (e.g.
// degradation mode, fault site). Lookups take a read lock only; the
// returned Counter's Inc/Add are single atomics.
type CounterVec struct {
	mu      sync.RWMutex
	label   string
	help    string
	curves  map[string]*Counter
	ordered []string // label values in first-use order, for stable output
}

func newCounterVec(help, label string) *CounterVec {
	return &CounterVec{label: label, help: help, curves: map[string]*Counter{}}
}

// With returns the counter for the given label value, creating it on first
// use.
func (cv *CounterVec) With(value string) *Counter {
	cv.mu.RLock()
	c, ok := cv.curves[value]
	cv.mu.RUnlock()
	if ok {
		return c
	}
	cv.mu.Lock()
	defer cv.mu.Unlock()
	if c, ok := cv.curves[value]; ok {
		return c
	}
	c = &Counter{help: cv.help}
	cv.curves[value] = c
	cv.ordered = append(cv.ordered, value)
	return c
}

// Inc adds one under the given label value.
func (cv *CounterVec) Inc(value string) { cv.With(value).Inc() }

func (cv *CounterVec) helpText() string { return cv.help }

func (cv *CounterVec) write(w io.Writer, name, help string) {
	cv.mu.RLock()
	values := append([]string(nil), cv.ordered...)
	counts := make([]int64, len(values))
	for i, v := range values {
		counts[i] = cv.curves[v].Value()
	}
	label := cv.label
	cv.mu.RUnlock()
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n", name, help, name)
	for i, value := range values {
		fmt.Fprintf(w, "%s{%s=%q} %d\n", name, label, value, counts[i])
	}
}

// HistogramVec is a family of Histograms sharing one bucket layout,
// partitioned by a single label (e.g. per pipeline stage). With scrapes
// rare and observations hot, lookups take a read lock only.
type HistogramVec struct {
	mu      sync.RWMutex
	label   string
	bounds  []float64
	help    string
	curves  map[string]*Histogram
	ordered []string // label values in first-use order, for stable output
}

func newHistogramVec(help, label string, buckets []float64) *HistogramVec {
	bounds := append([]float64(nil), buckets...)
	sort.Float64s(bounds)
	return &HistogramVec{
		label:  label,
		bounds: bounds,
		help:   help,
		curves: map[string]*Histogram{},
	}
}

// With returns the histogram for the given label value, creating it on
// first use.
func (hv *HistogramVec) With(value string) *Histogram {
	hv.mu.RLock()
	h, ok := hv.curves[value]
	hv.mu.RUnlock()
	if ok {
		return h
	}
	hv.mu.Lock()
	defer hv.mu.Unlock()
	if h, ok := hv.curves[value]; ok {
		return h
	}
	h = newHistogram(hv.help, hv.bounds)
	hv.curves[value] = h
	hv.ordered = append(hv.ordered, value)
	return h
}

// Observe records one value under the given label value.
func (hv *HistogramVec) Observe(value string, v float64) { hv.With(value).Observe(v) }

func (hv *HistogramVec) helpText() string { return hv.help }

func (hv *HistogramVec) write(w io.Writer, name, help string) {
	hv.mu.RLock()
	values := append([]string(nil), hv.ordered...)
	curves := make([]*Histogram, len(values))
	for i, v := range values {
		curves[i] = hv.curves[v]
	}
	label := hv.label
	hv.mu.RUnlock()
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
	for i, value := range values {
		h := curves[i]
		var cum int64
		for bi, b := range h.bounds {
			cum += h.counts[bi].Load()
			fmt.Fprintf(w, "%s_bucket{%s=%q,le=%q} %d%s\n", name, label, value, formatBound(b), cum, h.exemplarSuffix(bi))
		}
		cum += h.counts[len(h.bounds)].Load()
		fmt.Fprintf(w, "%s_bucket{%s=%q,le=\"+Inf\"} %d%s\n", name, label, value, cum, h.exemplarSuffix(len(h.bounds)))
		fmt.Fprintf(w, "%s_sum{%s=%q} %s\n", name, label, value, strconv.FormatFloat(h.Sum(), 'g', -1, 64))
		fmt.Fprintf(w, "%s_count{%s=%q} %d\n", name, label, value, h.Count())
	}
}

// GaugeVec is a family of float-valued gauges partitioned by one or more
// labels (e.g. cache level × serve mode). Lookups take a read lock only;
// Set on a materialized tuple is a single atomic store.
type GaugeVec struct {
	mu      sync.RWMutex
	labels  []string
	help    string
	curves  map[string]*floatGauge
	ordered []string // label tuples in first-use order, for stable output
}

// floatGauge holds float64 bits atomically.
type floatGauge struct {
	bits atomic.Uint64
}

func (g *floatGauge) set(v float64)  { g.bits.Store(math.Float64bits(v)) }
func (g *floatGauge) value() float64 { return math.Float64frombits(g.bits.Load()) }

func newGaugeVec(help string, labels []string) *GaugeVec {
	return &GaugeVec{
		labels: append([]string(nil), labels...),
		help:   help,
		curves: map[string]*floatGauge{},
	}
}

// tupleKey joins label values with a separator no label value may contain.
func tupleKey(values []string) string { return strings.Join(values, "\x1f") }

// Set replaces the gauge value for the given label tuple, materializing the
// series on first use. The number of values must match the label count.
func (gv *GaugeVec) Set(v float64, labelValues ...string) {
	if len(labelValues) != len(gv.labels) {
		panic(fmt.Sprintf("metrics: GaugeVec with labels %v given %d values", gv.labels, len(labelValues)))
	}
	key := tupleKey(labelValues)
	gv.mu.RLock()
	g, ok := gv.curves[key]
	gv.mu.RUnlock()
	if !ok {
		gv.mu.Lock()
		if g, ok = gv.curves[key]; !ok {
			g = &floatGauge{}
			gv.curves[key] = g
			gv.ordered = append(gv.ordered, key)
		}
		gv.mu.Unlock()
	}
	g.set(v)
}

func (gv *GaugeVec) helpText() string { return gv.help }

func (gv *GaugeVec) write(w io.Writer, name, help string) {
	gv.mu.RLock()
	keys := append([]string(nil), gv.ordered...)
	vals := make([]float64, len(keys))
	for i, k := range keys {
		vals[i] = gv.curves[k].value()
	}
	labels := gv.labels
	gv.mu.RUnlock()
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n", name, help, name)
	for i, k := range keys {
		parts := strings.Split(k, "\x1f")
		var b strings.Builder
		for li, l := range labels {
			if li > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%s=%q", l, parts[li])
		}
		fmt.Fprintf(w, "%s{%s} %s\n", name, b.String(), formatValue(vals[i]))
	}
}
