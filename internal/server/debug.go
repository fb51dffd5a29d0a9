package server

import (
	"fmt"
	"net/http"
	rtmetrics "runtime/metrics"

	"repro/internal/faults"
	"repro/internal/metrics"
)

// faultsResponse is the body of GET/POST /debug/faults: the injector's
// seed plus every armed rule with its evaluation counters.
type faultsResponse struct {
	Seed  uint64              `json:"seed"`
	Rules []faults.SiteStatus `json:"rules"`
}

// handleFaultsGet reports the fault injector's armed rules and counters.
// 404 when the server runs without an injector.
func (s *Server) handleFaultsGet(w http.ResponseWriter, _ *http.Request) {
	if s.faults == nil {
		s.writeError(w, http.StatusNotFound, fmt.Errorf("fault injection disabled (run with -faults)"))
		return
	}
	s.writeJSON(w, http.StatusOK, faultsResponse{Seed: s.faults.Seed(), Rules: s.faults.Status()})
}

// handleFaultsSet replaces the armed rule set (a JSON array of rules),
// resetting per-rule counters, and reports the new state.
func (s *Server) handleFaultsSet(w http.ResponseWriter, r *http.Request) {
	if s.faults == nil {
		s.writeError(w, http.StatusNotFound, fmt.Errorf("fault injection disabled (run with -faults)"))
		return
	}
	body, err := readBody(w, r)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	var rules []faults.Rule
	if err := decodeStrict(body, &rules); err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	if err := s.faults.SetRules(rules); err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	s.writeJSON(w, http.StatusOK, faultsResponse{Seed: s.faults.Seed(), Rules: s.faults.Status()})
}

// registerRuntimeMetrics exports runtime gauges through the registry,
// sampled lazily at scrape time via runtime/metrics (no background
// collection goroutine, no cost between scrapes).
func registerRuntimeMetrics(reg *metrics.Registry) {
	reg.GaugeFunc("cachemapd_goroutines",
		"live goroutines (runtime/metrics /sched/goroutines)",
		runtimeSampler("/sched/goroutines:goroutines"))
	reg.GaugeFunc("cachemapd_gomaxprocs",
		"GOMAXPROCS (runtime/metrics /sched/gomaxprocs)",
		runtimeSampler("/sched/gomaxprocs:threads"))
	reg.GaugeFunc("cachemapd_heap_live_bytes",
		"bytes occupied by live heap objects (runtime/metrics /memory/classes/heap/objects)",
		runtimeSampler("/memory/classes/heap/objects:bytes"))
	reg.CounterFunc("cachemapd_gc_pause_cpu_seconds_total",
		"cumulative CPU seconds lost to GC stop-the-world pauses (runtime/metrics /cpu/classes/gc/pause)",
		runtimeSampler("/cpu/classes/gc/pause:cpu-seconds"))
}

// runtimeSampler returns a func sampling one runtime/metrics value on each
// call, normalized to float64 (0 if the metric is absent on this runtime).
func runtimeSampler(name string) func() float64 {
	return func() float64 {
		sample := []rtmetrics.Sample{{Name: name}}
		rtmetrics.Read(sample)
		switch sample[0].Value.Kind() {
		case rtmetrics.KindUint64:
			return float64(sample[0].Value.Uint64())
		case rtmetrics.KindFloat64:
			return sample[0].Value.Float64()
		}
		return 0
	}
}
