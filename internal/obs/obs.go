// Package obs is a dependency-free request-tracing layer for the serving
// subsystem: spans (name, attributes, start/end, parent), context
// propagation, W3C traceparent interop, and the Chrome trace_event export
// of a completed trace. It retains nothing: the server keeps each
// request's trace on that request's wide event, in the one per-request
// ring behind /debug/events and /debug/traces.
//
// The design optimizes for the disabled case: code under instrumentation
// calls StartSpan / Record unconditionally, and when the context carries
// no active span (tracing off, or an untraced entry point) those calls are
// a single context.Value lookup — zero allocations on the hot path. A
// *Span may therefore be nil; all its methods are nil-safe no-ops.
//
// A trace is assembled incrementally: the root span (minted by StartRoot,
// once per request) owns a per-trace accumulator, child spans append
// themselves to it when they end, and ending the root span returns the
// completed trace.
package obs

import (
	"context"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand/v2"
	"sync"
	"time"
)

// TraceID identifies one request's trace (16 bytes, per W3C trace-context).
type TraceID [16]byte

// SpanID identifies one span within a trace (8 bytes).
type SpanID [8]byte

// String returns the lowercase-hex form of the trace ID.
func (id TraceID) String() string { return hex.EncodeToString(id[:]) }

// IsZero reports whether the ID is the invalid all-zero value.
func (id TraceID) IsZero() bool { return id == TraceID{} }

// String returns the lowercase-hex form of the span ID.
func (id SpanID) String() string { return hex.EncodeToString(id[:]) }

// IsZero reports whether the ID is the invalid all-zero value.
func (id SpanID) IsZero() bool { return id == SpanID{} }

func newTraceID() TraceID {
	var id TraceID
	for id.IsZero() {
		binary.BigEndian.PutUint64(id[:8], rand.Uint64())
		binary.BigEndian.PutUint64(id[8:], rand.Uint64())
	}
	return id
}

func newSpanID() SpanID {
	var id SpanID
	for id.IsZero() {
		binary.BigEndian.PutUint64(id[:], rand.Uint64())
	}
	return id
}

// TraceContext is the wire identity of a trace position: the pair a W3C
// `traceparent` header carries. The zero value means "no incoming trace".
type TraceContext struct {
	TraceID TraceID
	SpanID  SpanID
	Sampled bool
}

// NewTraceContext mints a fresh trace identity, for callers (such as load
// generators) that originate traces rather than continue them.
func NewTraceContext() TraceContext {
	return TraceContext{TraceID: newTraceID(), SpanID: newSpanID(), Sampled: true}
}

// TraceParent renders the context as a version-00 W3C traceparent header
// value: "00-{trace-id}-{parent-id}-{flags}".
func (tc TraceContext) TraceParent() string {
	flags := "00"
	if tc.Sampled {
		flags = "01"
	}
	return fmt.Sprintf("00-%s-%s-%s", tc.TraceID, tc.SpanID, flags)
}

// ParseTraceParent parses a W3C traceparent header value. It accepts only
// version 00 with non-zero IDs; ok is false (and the zero TraceContext is
// returned) for anything malformed, so callers can pass the raw header
// through unconditionally.
func ParseTraceParent(h string) (tc TraceContext, ok bool) {
	// 00-{32 hex}-{16 hex}-{2 hex}
	if len(h) != 55 || h[0] != '0' || h[1] != '0' || h[2] != '-' || h[35] != '-' || h[52] != '-' {
		return TraceContext{}, false
	}
	if _, err := hex.Decode(tc.TraceID[:], []byte(h[3:35])); err != nil {
		return TraceContext{}, false
	}
	if _, err := hex.Decode(tc.SpanID[:], []byte(h[36:52])); err != nil {
		return TraceContext{}, false
	}
	var flags [1]byte
	if _, err := hex.Decode(flags[:], []byte(h[53:55])); err != nil {
		return TraceContext{}, false
	}
	if tc.TraceID.IsZero() || tc.SpanID.IsZero() {
		return TraceContext{}, false
	}
	tc.Sampled = flags[0]&0x01 != 0
	return tc, true
}

// Attr is one span attribute.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// String builds an Attr (mirrors slog.String).
func String(key, value string) Attr { return Attr{Key: key, Value: value} }

// trace accumulates the spans of one trace until its root span ends.
type trace struct {
	mu    sync.Mutex
	id    TraceID
	spans []SpanData
	root  *Span
	done  bool
}

// finish seals the completed trace; caller holds t.mu.
func (t *trace) finish() *Trace {
	t.done = true
	root := t.spans[len(t.spans)-1] // the root span ends last by construction
	return &Trace{
		TraceID:    t.id.String(),
		Root:       root.Name,
		Start:      root.Start,
		DurationNS: root.DurationNS,
		Spans:      t.spans,
	}
}

// Span is one live (not yet ended) span. A nil *Span is valid and inert.
// A Span is owned by the goroutine that started it: SetAttr and End must
// not race with each other, but distinct spans of one trace may start and
// end concurrently.
type Span struct {
	t      *trace
	name   string
	spanID SpanID
	parent SpanID
	start  time.Time
	attrs  []Attr
}

// TraceID returns the ID of the trace the span belongs to.
func (s *Span) TraceID() TraceID {
	if s == nil {
		return TraceID{}
	}
	return s.t.id
}

// SpanID returns the span's own ID.
func (s *Span) SpanID() SpanID {
	if s == nil {
		return SpanID{}
	}
	return s.spanID
}

// SetAttr attaches a key/value attribute. Nil-safe.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
}

// End completes the span at time.Now. Ending the root span returns the
// whole trace, which is immutable from then on; every other span returns
// nil, and spans ending after their root are dropped. Nil-safe.
func (s *Span) End() *Trace {
	if s == nil {
		return nil
	}
	end := time.Now()
	t := s.t
	sd := SpanData{
		Name:       s.name,
		SpanID:     s.spanID.String(),
		Start:      s.start,
		DurationNS: end.Sub(s.start).Nanoseconds(),
		Attrs:      s.attrs,
	}
	if !s.parent.IsZero() {
		sd.ParentID = s.parent.String()
	}
	var done *Trace
	t.mu.Lock()
	if !t.done {
		t.spans = append(t.spans, sd)
		if s == t.root {
			done = t.finish()
		}
	}
	t.mu.Unlock()
	return done
}

type spanKey struct{}

// SpanFromContext returns the active span carried by ctx, or nil.
func SpanFromContext(ctx context.Context) *Span {
	sp, _ := ctx.Value(spanKey{}).(*Span)
	return sp
}

// ContextWithSpan returns ctx carrying sp as the active span.
func ContextWithSpan(ctx context.Context, sp *Span) context.Context {
	return context.WithValue(ctx, spanKey{}, sp)
}

// StartSpan begins a child of the active span in ctx and returns a context
// carrying it. When ctx carries no span (tracing disabled or an untraced
// entry point) it returns (ctx, nil) without allocating.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	parent := SpanFromContext(ctx)
	if parent == nil {
		return ctx, nil
	}
	sp := &Span{
		t:      parent.t,
		name:   name,
		spanID: newSpanID(),
		parent: parent.spanID,
		start:  time.Now(),
	}
	return ContextWithSpan(ctx, sp), sp
}

// Record attaches an already-measured span (explicit start and duration)
// under the active span in ctx. It exists for code that has its own
// ledger of phase timings — the recorded span matches the ledger exactly
// instead of re-measuring. No-op (and allocation-free when called without
// attrs) when ctx carries no span.
func Record(ctx context.Context, name string, start time.Time, d time.Duration, attrs ...Attr) {
	parent := SpanFromContext(ctx)
	if parent == nil {
		return
	}
	sd := SpanData{
		Name:       name,
		SpanID:     newSpanID().String(),
		ParentID:   parent.spanID.String(),
		Start:      start,
		DurationNS: d.Nanoseconds(),
		Attrs:      attrs,
	}
	t := parent.t
	t.mu.Lock()
	if !t.done {
		t.spans = append(t.spans, sd)
	}
	t.mu.Unlock()
}

// StartRoot begins a new trace rooted at name. With a valid remote
// context (an ingested traceparent) the trace adopts the remote trace ID
// and the root span records the remote span as its parent; otherwise a
// fresh trace ID is minted.
func StartRoot(ctx context.Context, name string, remote TraceContext) (context.Context, *Span) {
	id := remote.TraceID
	var parent SpanID
	if id.IsZero() {
		id = newTraceID()
	} else {
		parent = remote.SpanID
	}
	tr := &trace{id: id}
	sp := &Span{
		t:      tr,
		name:   name,
		spanID: newSpanID(),
		parent: parent,
		start:  time.Now(),
	}
	tr.root = sp
	return ContextWithSpan(ctx, sp), sp
}
