package server

// Wide per-request events: instead of scattering one request's story over
// access-log lines, span attributes and counters, the server emits one
// canonical structured event per API request — trace ID, plan key, workload
// family, serve mode, reused stages, admission wait, per-stage durations,
// the request's completed trace, and (when the response was shadow-sampled)
// the quality verdict, backfilled asynchronously by the sampler worker.
// Events are retained in one fixed-size ring, the only per-request store:
// GET /debug/events serves the events, GET /debug/traces their traces, both
// through the same filters and bounds, and the ring's trace-ID index joins
// /metrics exemplars, /debug/traces/{id} and the quality backfill.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/quality"
)

// Event is the canonical wide record of one API request.
type Event struct {
	Time    time.Time `json:"time"`
	TraceID string    `json:"trace_id,omitempty"`
	Method  string    `json:"method"`
	Path    string    `json:"path"`
	Status  int       `json:"status"`
	// DurationMS is the end-to-end request latency.
	DurationMS float64 `json:"duration_ms"`
	// Family is the workload family (app name, synth/stencil name).
	Family string `json:"family,omitempty"`
	// Mode is the serve mode (quality.Mode*): how the plan was produced.
	Mode string `json:"mode,omitempty"`
	// CacheKey is the served plan's content address.
	CacheKey string `json:"cache_key,omitempty"`
	// ReusedStages lists pipeline stages an incremental repair reused.
	ReusedStages []string `json:"reused_stages,omitempty"`
	// DegradedCause names the overload symptom behind a degraded response.
	DegradedCause string `json:"degraded_cause,omitempty"`
	// AdmissionWaitMS is the time spent waiting for a worker slot.
	AdmissionWaitMS float64 `json:"admission_wait_ms,omitempty"`
	// StageMS maps pipeline stage name to its duration for this plan's
	// production (cache hits report the original computation's stages).
	StageMS map[string]float64 `json:"stage_ms,omitempty"`
	Error   string             `json:"error,omitempty"`
	// QualitySampled marks the response as drawn for shadow simulation;
	// Quality carries the verdict once the sampler worker finishes (nil
	// until then — poll /debug/events to see it land).
	QualitySampled bool            `json:"quality_sampled,omitempty"`
	Quality        *quality.Record `json:"quality,omitempty"`
	// Trace is the request's completed trace, served by /debug/traces
	// rather than inline here.
	Trace *obs.Trace `json:"-"`

	// sample is the pending shadow-simulation sample for this request's
	// served plan, set by the handler and offered by serve only after the
	// event is published (so the async verdict always finds its event).
	sample *quality.Sample
}

// eventCtxKey carries the in-flight request's *Event through the handler
// chain so deeper layers (admission, mode classification) can annotate it
// before serve publishes it.
type eventCtxKey struct{}

func withEvent(ctx context.Context, ev *Event) context.Context {
	return context.WithValue(ctx, eventCtxKey{}, ev)
}

// eventFrom returns the request's in-flight event, nil outside a request.
// The event is written only from the request goroutine until serve
// publishes a copy into the ring; the published copy is then owned (and
// locked) by the EventLog.
func eventFrom(ctx context.Context) *Event {
	ev, _ := ctx.Value(eventCtxKey{}).(*Event)
	return ev
}

// EventLog is a fixed-size ring of the most recent request events, with a
// trace-ID index (newest event per ID) for trace lookups and asynchronous
// quality backfill. Safe for concurrent use.
type EventLog struct {
	mu      sync.Mutex
	buf     []*Event
	next    int
	total   uint64
	byTrace map[string]*Event
}

// NewEventLog builds a ring holding the newest n events (n <= 0 picks the
// default 256).
func NewEventLog(n int) *EventLog {
	if n <= 0 {
		n = 256
	}
	return &EventLog{buf: make([]*Event, 0, n), byTrace: make(map[string]*Event, n)}
}

// Capacity returns the ring bound.
func (l *EventLog) Capacity() int { return cap(l.buf) }

// Total counts every event ever added, including overwritten ones.
func (l *EventLog) Total() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.total
}

// Add publishes a copy of ev into the ring.
func (l *EventLog) Add(ev Event) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.total++
	stored := &ev
	if len(l.buf) < cap(l.buf) {
		l.buf = append(l.buf, stored)
	} else {
		old := l.buf[l.next]
		if old.TraceID != "" && l.byTrace[old.TraceID] == old {
			delete(l.byTrace, old.TraceID)
		}
		l.buf[l.next] = stored
		l.next = (l.next + 1) % cap(l.buf)
	}
	if ev.TraceID != "" {
		l.byTrace[ev.TraceID] = stored
	}
}

// markSampled flags the retained event with the given trace ID as drawn
// for shadow simulation (its verdict arrives later via AttachQuality).
func (l *EventLog) markSampled(traceID string) {
	if traceID == "" {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if ev, ok := l.byTrace[traceID]; ok {
		ev.QualitySampled = true
	}
}

// AttachQuality backfills the shadow-simulation verdict onto the retained
// event with the given trace ID, if the ring still holds it.
func (l *EventLog) AttachQuality(traceID string, rec quality.Record) {
	if traceID == "" {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if ev, ok := l.byTrace[traceID]; ok {
		ev.Quality = &rec
	}
}

// Trace returns the trace of the newest retained request with the given
// trace ID.
func (l *EventLog) Trace(traceID string) (*obs.Trace, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if ev, ok := l.byTrace[traceID]; ok {
		return ev.Trace, true
	}
	return nil, false
}

// Events returns up to limit retained events matching filter, newest
// first (limit <= 0: all retained). The returned events are copies, safe
// to use without further locking.
func (l *EventLog) Events(filter func(*Event) bool, limit int) []Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Event, 0, len(l.buf))
	for i := len(l.buf) - 1; i >= 0; i-- {
		// Newest-first: walk back from the slot before the overwrite cursor.
		ev := l.buf[(i+l.next)%len(l.buf)]
		if filter != nil && !filter(ev) {
			continue
		}
		out = append(out, *ev)
		if limit > 0 && len(out) >= limit {
			break
		}
	}
	return out
}

// maxDebugResponseBytes is the hard bound on /debug/events and
// /debug/traces response payloads: however large the ring grows, a debug
// scrape of a long-running daemon stays bounded.
const maxDebugResponseBytes = 1 << 20

var errRingDisabled = errors.New("request events and tracing disabled")

// ringList is the envelope both list endpoints share.
type ringList struct {
	// Count is the number of items returned (after filtering).
	Count int `json:"count"`
	// Capacity is the ring bound; at most this many recent requests are
	// retained regardless of request volume.
	Capacity int `json:"capacity"`
	// Total counts every request ever recorded, including those the ring
	// has since overwritten.
	Total uint64 `json:"total_recorded"`
	// Truncated marks a response cut by ?limit= or the hard size bound.
	Truncated bool `json:"truncated,omitempty"`
}

// eventsResponse is the body of GET /debug/events.
type eventsResponse struct {
	ringList
	Events []Event `json:"events"`
}

// tracesResponse is the body of GET /debug/traces.
type tracesResponse struct {
	ringList
	Traces []*obs.Trace `json:"traces"`
}

// handleEvents serves the retained request events as JSON, newest first.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	events, head, ok := ringQuery(s, w, r, func(ev Event) Event { return ev })
	if ok {
		s.writeJSON(w, http.StatusOK, eventsResponse{head, events})
	}
}

// handleTraces serves the retained requests' traces as JSON, newest first.
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	traces, head, ok := ringQuery(s, w, r, func(ev Event) *obs.Trace { return ev.Trace })
	if ok {
		s.writeJSON(w, http.StatusOK, tracesResponse{head, traces})
	}
}

// handleTraceByID renders one trace in the Chrome trace_event JSON format,
// loadable in chrome://tracing or https://ui.perfetto.dev. A trace ID sent
// by several requests (a repeated traceparent) resolves to the newest.
func (s *Server) handleTraceByID(w http.ResponseWriter, r *http.Request) {
	if s.events == nil {
		s.writeError(w, http.StatusNotFound, errRingDisabled)
		return
	}
	id := r.PathValue("id")
	t, ok := s.events.Trace(id)
	if !ok {
		s.writeError(w, http.StatusNotFound, fmt.Errorf("no retained trace %q", id))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Disposition", fmt.Sprintf("inline; filename=%q", "trace-"+id+".json"))
	_ = t.WriteChrome(w) // on an encode error the headers are gone: nothing left to report
}

// ringQuery answers a list endpoint from the ring: the retained events
// passing the request's filters, newest first, each rendered by item, and
// the envelope. ?limit= and the hard size bound both cut the list and set
// truncated. On a bad query or a disabled ring it writes the error
// response itself and reports false.
func ringQuery[T any](s *Server, w http.ResponseWriter, r *http.Request, item func(Event) T) ([]T, ringList, bool) {
	if s.events == nil {
		s.writeError(w, http.StatusNotFound, errRingDisabled)
		return nil, ringList{}, false
	}
	q, err := parseRingFilter(r.URL.Query())
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return nil, ringList{}, false
	}
	n := q.limit
	if n > 0 {
		n++ // one more than asked shows whether the limit cut anything
	}
	events := s.events.Events(q.match, n)
	limited := q.limit > 0 && len(events) > q.limit
	if limited {
		events = events[:q.limit]
	}
	items := make([]T, len(events))
	for i, ev := range events {
		items[i] = item(ev)
	}
	items, cut := boundJSONList(items, maxDebugResponseBytes)
	return items, ringList{
		Count:     len(items),
		Capacity:  s.events.Capacity(),
		Total:     s.events.Total(),
		Truncated: limited || cut,
	}, true
}

// ringFilter is the query both list endpoints take: ?family=, ?mode=,
// ?min_ms= (at least this slow) and ?limit= (0: no limit).
type ringFilter struct {
	family, mode string
	minMS        float64
	limit        int
}

func parseRingFilter(q url.Values) (ringFilter, error) {
	f := ringFilter{family: q.Get("family"), mode: q.Get("mode")}
	if v := q.Get("min_ms"); v != "" {
		ms, err := strconv.ParseFloat(v, 64)
		if err != nil || ms < 0 {
			return f, fmt.Errorf("bad min_ms %q", v)
		}
		f.minMS = ms
	}
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			return f, fmt.Errorf("bad limit %q", v)
		}
		f.limit = n
	}
	return f, nil
}

func (f ringFilter) match(ev *Event) bool {
	return (f.family == "" || ev.Family == f.family) &&
		(f.mode == "" || ev.Mode == f.mode) &&
		ev.DurationMS >= f.minMS
}

// boundJSONList trims items so their summed JSON encodings stay under
// budget bytes (plus envelope slack), reporting whether anything was cut.
func boundJSONList[T any](items []T, budget int) ([]T, bool) {
	var used int
	for i := range items {
		b, err := json.Marshal(items[i])
		if err != nil {
			return items[:i], true
		}
		used += len(b) + 1 // separator
		if used > budget {
			return items[:i], true
		}
	}
	return items, false
}
