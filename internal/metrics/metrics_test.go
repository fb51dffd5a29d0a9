package metrics

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("requests_total", "total requests")
	g := r.Gauge("in_flight", "in-flight requests")
	c.Inc()
	c.Add(4)
	g.Inc()
	g.Inc()
	g.Dec()
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	if g.Value() != 1 {
		t.Fatalf("gauge = %d, want 1", g.Value())
	}
	// Re-registration returns the same instrument.
	if r.Counter("requests_total", "total requests") != c {
		t.Fatal("re-registration created a new counter")
	}
}

func TestHistogram(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("latency_seconds", "request latency", []float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.05, 0.5, 5} {
		h.Observe(v)
	}
	if h.Count() != 4 {
		t.Fatalf("count = %d, want 4", h.Count())
	}
	if got, want := h.Sum(), 5.555; got < want-1e-9 || got > want+1e-9 {
		t.Fatalf("sum = %g, want %g", got, want)
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("cachemapd_requests_total", "requests served")
	c.Add(7)
	g := r.Gauge("cachemapd_in_flight", "in-flight")
	g.Inc()
	g.Inc()
	h := r.Histogram("cachemapd_latency_seconds", "latency", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(2)

	var sb strings.Builder
	r.WritePrometheus(&sb)
	out := sb.String()
	for _, want := range []string{
		"# TYPE cachemapd_requests_total counter",
		"cachemapd_requests_total 7",
		"# TYPE cachemapd_in_flight gauge",
		"cachemapd_in_flight 2",
		"# TYPE cachemapd_latency_seconds histogram",
		`cachemapd_latency_seconds_bucket{le="0.1"} 1`,
		`cachemapd_latency_seconds_bucket{le="1"} 2`,
		`cachemapd_latency_seconds_bucket{le="+Inf"} 3`,
		"cachemapd_latency_seconds_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// Registration order is preserved.
	if strings.Index(out, "requests_total") > strings.Index(out, "in_flight") {
		t.Error("exposition not in registration order")
	}
}

func TestConcurrentObserve(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c", "")
	h := r.Histogram("h", "", DefaultLatencyBuckets())
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
				h.Observe(0.001)
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Fatalf("counter = %d, want 8000", c.Value())
	}
	if h.Count() != 8000 {
		t.Fatalf("histogram count = %d, want 8000", h.Count())
	}
	if got, want := h.Sum(), 8.0; got < want-1e-6 || got > want+1e-6 {
		t.Fatalf("histogram sum = %g, want %g", got, want)
	}
}

func TestHistogramVec(t *testing.T) {
	r := NewRegistry()
	hv := r.HistogramVec("stage_seconds", "per-stage latency", "stage", []float64{0.01, 1})
	hv.Observe("tags", 0.005)
	hv.Observe("tags", 0.5)
	hv.Observe("cluster", 2)
	var buf bytes.Buffer
	r.WritePrometheus(&buf)
	out := buf.String()
	for _, want := range []string{
		"# TYPE stage_seconds histogram",
		`stage_seconds_bucket{stage="tags",le="0.01"} 1`,
		`stage_seconds_bucket{stage="tags",le="1"} 2`,
		`stage_seconds_bucket{stage="tags",le="+Inf"} 2`,
		`stage_seconds_count{stage="tags"} 2`,
		`stage_seconds_bucket{stage="cluster",le="+Inf"} 1`,
		`stage_seconds_count{stage="cluster"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if hv.With("tags") != hv.With("tags") {
		t.Error("With not idempotent")
	}
	// Same name returns the same vec; wrong type panics.
	if r.HistogramVec("stage_seconds", "x", "stage", nil) != hv {
		t.Error("re-registration returned a different instrument")
	}
}

func TestCounterVec(t *testing.T) {
	r := NewRegistry()
	cv := r.CounterVec("degraded_total", "degraded responses by mode", "mode")
	cv.Inc("stale")
	cv.Inc("stale")
	cv.With("fallback").Add(3)
	var buf bytes.Buffer
	r.WritePrometheus(&buf)
	out := buf.String()
	for _, want := range []string{
		"# TYPE degraded_total counter",
		`degraded_total{mode="stale"} 2`,
		`degraded_total{mode="fallback"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if sum := cv.With("stale").Value() + cv.With("fallback").Value(); sum != 5 {
		t.Errorf("sum = %d, want 5", sum)
	}
	if cv.With("stale") != cv.With("stale") {
		t.Error("With not idempotent")
	}
	if r.CounterVec("degraded_total", "x", "mode") != cv {
		t.Error("re-registration returned a different instrument")
	}
}

func TestCounterVecConcurrent(t *testing.T) {
	r := NewRegistry()
	cv := r.CounterVec("cvc", "c", "l")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				cv.Inc(fmt.Sprintf("v%d", i%4))
			}
		}()
	}
	wg.Wait()
	var total int64
	for i := 0; i < 4; i++ {
		total += cv.With(fmt.Sprintf("v%d", i)).Value()
	}
	if total != 8*500 {
		t.Fatalf("total = %d, want %d", total, 8*500)
	}
}

func TestHistogramVecConcurrent(t *testing.T) {
	r := NewRegistry()
	hv := r.HistogramVec("hv", "h", "l", DefaultLatencyBuckets())
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				hv.Observe(fmt.Sprintf("v%d", i%4), float64(i)/1000)
			}
		}(g)
	}
	wg.Wait()
	var total int64
	for i := 0; i < 4; i++ {
		total += hv.With(fmt.Sprintf("v%d", i)).Count()
	}
	if total != 8*500 {
		t.Fatalf("total observations = %d, want %d", total, 8*500)
	}
}

// TestHistogramInfBucket: observations beyond the largest finite bound
// land only in the implicit +Inf bucket, and the cumulative counts render
// correctly.
func TestHistogramInfBucket(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", "help", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(50)   // beyond every finite bound
	h.Observe(1e12) // absurdly large still counts
	var buf bytes.Buffer
	r.WritePrometheus(&buf)
	out := buf.String()
	for _, want := range []string{
		`h_bucket{le="0.1"} 1`,
		`h_bucket{le="1"} 1`,
		`h_bucket{le="+Inf"} 3`,
		"h_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	if h.Count() != 3 {
		t.Errorf("count = %d", h.Count())
	}
}

// TestFuncInstrumentSpecialValues: lazily sampled gauges render NaN and
// ±Inf in the Prometheus text spellings, a CountFunc renders a count past
// a million as an integer, and fn runs only at scrape time.
func TestFuncInstrumentSpecialValues(t *testing.T) {
	r := NewRegistry()
	var calls int
	vals := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 42.5}
	r.GaugeFunc("weird", "help", func() float64 {
		v := vals[calls%len(vals)]
		calls++
		return v
	})
	r.CounterFunc("grow_total", "help", func() float64 { return 7 })
	r.CountFunc("count_total", "help", func() int64 { return 2_500_000 })
	if calls != 0 {
		t.Fatalf("fn sampled before scrape: %d calls", calls)
	}
	scrape := func() string {
		var buf bytes.Buffer
		r.WritePrometheus(&buf)
		return buf.String()
	}
	out := scrape()
	for _, want := range []string{
		"# TYPE weird gauge", "weird NaN", "# TYPE grow_total counter", "grow_total 7",
		"# TYPE count_total counter", "count_total 2500000",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// One GaugeFunc sample per scrape, in sequence: +Inf then -Inf then 42.5.
	for _, want := range []string{"weird +Inf", "weird -Inf", "weird 42.5"} {
		if out := scrape(); !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

// TestScrapeDuringObserve scrapes the registry while every instrument type
// is being driven concurrently — meaningful under -race, and it also
// checks that the final exposition reflects all observations.
func TestScrapeDuringObserve(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "help")
	g := r.Gauge("g", "help")
	h := r.Histogram("h", "help", DefaultLatencyBuckets())
	hv := r.HistogramVec("hv", "help", "stage", []float64{0.1, 1})
	r.GaugeFunc("gf", "help", func() float64 { return float64(c.Value()) })

	const writers, perWriter = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				c.Inc()
				g.Inc()
				h.Observe(float64(i) / 100)
				hv.Observe(fmt.Sprintf("s%d", w%3), 0.5)
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for scrapes := 0; ; scrapes++ {
		var buf bytes.Buffer
		r.WritePrometheus(&buf)
		select {
		case <-done:
			if scrapes == 0 {
				t.Log("writers outpaced the first scrape") // still a valid race check
			}
			var buf bytes.Buffer
			r.WritePrometheus(&buf)
			out := buf.String()
			want := fmt.Sprintf("c_total %d", writers*perWriter)
			if !strings.Contains(out, want) {
				t.Fatalf("final exposition missing %q", want)
			}
			if !strings.Contains(out, fmt.Sprintf("h_count %d", writers*perWriter)) {
				t.Fatalf("final exposition missing full h_count:\n%s", out)
			}
			return
		default:
		}
	}
}

func TestHistogramExemplar(t *testing.T) {
	h := newHistogram([]float64{0.1, 1})
	h.Observe(0.05) // no exemplar
	var plain bytes.Buffer
	h.writeSample(&plain, "lat", "")
	if strings.Contains(plain.String(), "trace_id") {
		t.Fatalf("plain Observe retained an exemplar:\n%s", plain.String())
	}
	h.ObserveWithExemplar(0.05, "aaaa")
	h.ObserveWithExemplar(0.07, "bbbb") // replaces aaaa in the same bucket
	h.ObserveWithExemplar(0.5, "cccc")
	h.ObserveWithExemplar(5, "dddd") // overflow bucket
	h.ObserveWithExemplar(9, "")     // empty trace ID: plain observation

	var buf bytes.Buffer
	h.writeSample(&buf, "lat", "")
	out := buf.String()
	for _, want := range []string{
		// The bucket keeps its most recent exemplar, (bbbb, 0.07).
		`lat_bucket{le="0.1"} 3 # {trace_id="bbbb"} 0.07`,
		`lat_bucket{le="1"} 4 # {trace_id="cccc"} 0.5`,
		// The empty-ID observe must not replace dddd.
		`lat_bucket{le="+Inf"} 6 # {trace_id="dddd"} 5`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing OpenMetrics exemplar %q:\n%s", want, out)
		}
	}
	if !strings.Contains(out, "lat_count 6") {
		t.Fatalf("exemplar observes not counted:\n%s", out)
	}
}

func TestGaugeVec(t *testing.T) {
	r := NewRegistry()
	gv := r.GaugeVec("missrate", "per-level per-mode miss rate", "level", "mode")
	gv.Set(0.25, "L1", "full")
	gv.Set(0.75, "L2", "degraded_stale")
	gv.Set(0.5, "L1", "full") // overwrite
	var buf bytes.Buffer
	r.WritePrometheus(&buf)
	out := buf.String()
	if strings.Contains(out, `level="L9"`) || strings.Contains(out, `missrate{level="L1",mode="full"} 0.25`) {
		t.Fatalf("exposition shows an unset tuple or a replaced value:\n%s", out)
	}
	for _, want := range []string{
		"# TYPE missrate gauge",
		`missrate{level="L1",mode="full"} 0.5`,
		`missrate{level="L2",mode="degraded_stale"} 0.75`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

// TestExemplarScrapeDuringObserve races ObserveWithExemplar (Histogram and
// HistogramVec) and GaugeVec.Set against WritePrometheus; run under -race
// it proves a scrape can never tear an exemplar or a gauge tuple.
func TestExemplarScrapeDuringObserve(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", "h", []float64{0.1, 1})
	hv := r.HistogramVec("hv", "hv", "stage", []float64{0.1, 1})
	gv := r.GaugeVec("gv", "gv", "level", "mode")

	const writers, perWriter = 8, 400
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				id := fmt.Sprintf("%04x%04x", w, i)
				h.ObserveWithExemplar(float64(i)/100, id)
				hv.With(fmt.Sprintf("s%d", w%3)).ObserveWithExemplar(0.5, id)
				gv.Set(float64(i), fmt.Sprintf("L%d", w%4), "full")
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for {
		var buf bytes.Buffer
		r.WritePrometheus(&buf)
		select {
		case <-done:
			var buf bytes.Buffer
			r.WritePrometheus(&buf)
			out := buf.String()
			if !strings.Contains(out, fmt.Sprintf("h_count %d", writers*perWriter)) {
				t.Fatalf("final exposition missing full h_count:\n%s", out)
			}
			if !strings.Contains(out, "# {trace_id=") {
				t.Fatalf("final exposition carries no exemplar:\n%s", out)
			}
			return
		default:
		}
	}
}

var update = flag.Bool("update", false, "rewrite testdata/exposition.txt")

// TestExpositionGolden pins the whole exposition, byte for byte, of a
// registry holding every kind of instrument: scalars with exemplars in some
// buckets and unsorted bucket bounds, lazily sampled values reading +Inf
// and 12.5 (and a count past a million, which a float renders in
// e-notation), a two-label gauge family holding a NaN, one-label counter and
// histogram families whose series appear in first-use order, and families
// never used, which render only their HELP and TYPE lines.
func TestExpositionGolden(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("golden_requests_total", "requests served")
	c.Add(1_234_567)
	g := r.Gauge("golden_in_flight", "requests in flight")
	g.Inc()
	g.Inc()
	g.Dec()
	h := r.Histogram("golden_latency_seconds", "request latency", []float64{1, 0.01, 0.1})
	h.Observe(0.005)
	h.ObserveWithExemplar(0.05, "aaaa")
	h.ObserveWithExemplar(2.5, "bbbb")
	r.GaugeFunc("golden_headroom", "a lazily sampled gauge", func() float64 { return math.Inf(1) })
	r.CounterFunc("golden_cpu_seconds_total", "a lazily sampled counter", func() float64 { return 12.5 })
	r.CounterFunc("golden_appends_total", "a lazily sampled count", func() float64 { return 2_500_000 })
	gv := r.GaugeVec("golden_missrate", "miss rate by level and mode", "level", "mode")
	gv.Set(0.25, "L2", "full")
	gv.Set(math.NaN(), "L1", "cached")
	gv.Set(0.5, "L2", "full")
	cv := r.CounterVec("golden_replan_total", "plans by outcome", "outcome")
	cv.Inc("incremental")
	cv.With("full").Add(3)
	cv.Inc("incremental")
	hv := r.HistogramVec("golden_stage_seconds", "stage latency", "stage", []float64{0.1, 0.01})
	hv.Observe("tags", 0.002)
	hv.With("cluster").ObserveWithExemplar(0.5, "cccc")
	hv.Observe("tags", 0.05)
	r.CounterVec("golden_unused_total", "a counter family never used", "site")
	r.HistogramVec("golden_unused_seconds", "a histogram family never used", "stage", DefaultLatencyBuckets())
	r.GaugeVec("golden_unused_ratio", "a gauge family never used", "level", "mode")

	var buf bytes.Buffer
	r.WritePrometheus(&buf)
	golden := filepath.Join("testdata", "exposition.txt")
	if *update {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("exposition drifted from %s:\n got:\n%s\nwant:\n%s", golden, buf.Bytes(), want)
	}
}

// TestAllocInstruments holds the hot paths the package doc promises
// allocation-free to zero allocations, a vec's once its series exists.
func TestAllocInstruments(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "help")
	g := r.Gauge("g", "help")
	h := r.Histogram("h_seconds", "help", DefaultLatencyBuckets())
	cv := r.CounterVec("cv_total", "help", "outcome")
	hv := r.HistogramVec("hv_seconds", "help", "stage", DefaultLatencyBuckets())
	cv.Inc("full")
	hv.Observe("tags", 0.001)
	for _, tc := range []struct {
		name string
		fn   func()
	}{
		{"Counter.Inc", c.Inc},
		{"Counter.Add", func() { c.Add(3) }},
		{"Gauge.Inc", g.Inc},
		{"Gauge.Dec", g.Dec},
		{"Histogram.Observe", func() { h.Observe(0.004) }},
		{"CounterVec.Inc", func() { cv.Inc("full") }},
		{"HistogramVec.Observe", func() { hv.Observe("tags", 0.004) }},
	} {
		if n := testing.AllocsPerRun(100, tc.fn); n != 0 {
			t.Errorf("%s: %.1f allocations per call, want 0", tc.name, n)
		}
	}
}

// TestRegisterKinds: registering a name again as the same kind returns the
// instrument already there, and registering it as another kind panics,
// a scalar and its vec included.
func TestRegisterKinds(t *testing.T) {
	r := NewRegistry()
	same := map[string][2]any{
		"counter":    {r.Counter("c", "h"), r.Counter("c", "other help")},
		"gauge":      {r.Gauge("g", "h"), r.Gauge("g", "h")},
		"histogram":  {r.Histogram("h", "h", []float64{1}), r.Histogram("h", "h", nil)},
		"countervec": {r.CounterVec("cv", "h", "l"), r.CounterVec("cv", "h", "l")},
		"histogramvec": {r.HistogramVec("hv", "h", "l", []float64{1}),
			r.HistogramVec("hv", "h", "l", nil)},
		"gaugevec": {r.GaugeVec("gv", "h", "a", "b"), r.GaugeVec("gv", "h", "a", "b")},
	}
	for kind, pair := range same {
		if pair[0] != pair[1] {
			t.Errorf("re-registering a %s returned a new instrument", kind)
		}
	}
	r.GaugeFunc("gf", "h", func() float64 { return 0 })
	r.CountFunc("cf", "h", func() int64 { return 0 })
	for name, register := range map[string]func(){
		"Counter as CounterVec":     func() { r.CounterVec("c", "h", "l") },
		"CounterVec as Counter":     func() { r.Counter("cv", "h") },
		"Histogram as HistogramVec": func() { r.HistogramVec("h", "h", "l", nil) },
		"HistogramVec as Histogram": func() { r.Histogram("hv", "h", nil) },
		"Gauge as GaugeVec":         func() { r.GaugeVec("g", "h", "a") },
		"GaugeFunc as Gauge":        func() { r.Gauge("gf", "h") },
		"CountFunc as Counter":      func() { r.Counter("cf", "h") },
		"Counter as Gauge":          func() { r.Gauge("c", "h") },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("registering a %s did not panic", name)
				}
			}()
			register()
		}()
	}
}
