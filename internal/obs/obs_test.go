package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestTraceParentRoundTrip(t *testing.T) {
	tc := NewTraceContext()
	h := tc.TraceParent()
	got, ok := ParseTraceParent(h)
	if !ok {
		t.Fatalf("ParseTraceParent(%q) not ok", h)
	}
	if got != tc {
		t.Fatalf("round trip: got %+v, want %+v", got, tc)
	}
}

func TestParseTraceParentRejectsMalformed(t *testing.T) {
	cases := []string{
		"",
		"00",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7",     // missing flags
		"01-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",  // wrong version
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01",  // zero trace id
		"00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01",  // zero span id
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902zz-01",  // non-hex
		"00-4bf92f3577b34da6a3ce929d0e0e4736--00f067aa0ba902b7-01", // bad layout
	}
	for _, h := range cases {
		if _, ok := ParseTraceParent(h); ok {
			t.Errorf("ParseTraceParent(%q) accepted", h)
		}
	}
	good := "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	tc, ok := ParseTraceParent(good)
	if !ok || tc.TraceID.String() != "4bf92f3577b34da6a3ce929d0e0e4736" ||
		tc.SpanID.String() != "00f067aa0ba902b7" || !tc.Sampled {
		t.Fatalf("ParseTraceParent(%q) = %+v, %v", good, tc, ok)
	}
}

func TestRootAndChildSpansPublishOneTrace(t *testing.T) {
	ctx, root := StartRoot(context.Background(), "req", TraceContext{})
	if root == nil {
		t.Fatal("nil root span")
	}
	root.SetAttr("k", "v")

	cctx, child := StartSpan(ctx, "child")
	_, grand := StartSpan(cctx, "grandchild")
	if grand.End() != nil || child.End() != nil {
		t.Fatal("a non-root span published the trace")
	}
	Record(cctx, "ledger", time.Now().Add(-time.Millisecond), time.Millisecond, String("phase", "x"))

	trace := root.End()
	if trace == nil {
		t.Fatal("ending the root span returned no trace")
	}
	if trace.TraceID != root.TraceID().String() {
		t.Fatalf("trace id %s, want the root's %s", trace.TraceID, root.TraceID())
	}
	if trace.Root != "req" {
		t.Fatalf("root name %q", trace.Root)
	}
	if len(trace.Spans) != 4 {
		t.Fatalf("got %d spans, want 4: %+v", len(trace.Spans), trace.Spans)
	}
	byName := map[string]SpanData{}
	for _, sp := range trace.Spans {
		byName[sp.Name] = sp
	}
	rootSD := byName["req"]
	if byName["child"].ParentID != rootSD.SpanID {
		t.Fatalf("child parent %q, want root %q", byName["child"].ParentID, rootSD.SpanID)
	}
	if byName["grandchild"].ParentID != byName["child"].SpanID {
		t.Fatal("grandchild not parented under child")
	}
	if byName["ledger"].ParentID != byName["child"].SpanID {
		t.Fatal("recorded span not parented under the active span")
	}
	if byName["ledger"].DurationNS != time.Millisecond.Nanoseconds() {
		t.Fatalf("recorded span duration %d, want exactly 1ms", byName["ledger"].DurationNS)
	}
	// Root ends last.
	if trace.Spans[len(trace.Spans)-1].Name != "req" {
		t.Fatal("root span is not last")
	}
	if rootSD.Attrs[0] != (Attr{Key: "k", Value: "v"}) {
		t.Fatalf("root attrs %+v", rootSD.Attrs)
	}
}

func TestStartRootAdoptsRemoteContext(t *testing.T) {
	remote, _ := ParseTraceParent("00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
	_, root := StartRoot(context.Background(), "req", remote)
	if got := root.TraceID().String(); got != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Fatalf("trace id %s", got)
	}
	trace := root.End()
	if trace.Spans[0].ParentID != "00f067aa0ba902b7" {
		t.Fatalf("root parent %q, want the remote span", trace.Spans[0].ParentID)
	}
}

// TestDisabledTracingZeroAlloc is the hot-path bound: with no active span
// in the context (tracing off), starting/ending spans and recording
// ledger spans must not allocate.
func TestDisabledTracingZeroAlloc(t *testing.T) {
	ctx := context.Background()
	allocs := testing.AllocsPerRun(1000, func() {
		c2, sp := StartSpan(ctx, "x")
		sp.SetAttr("k", "v")
		sp.End()
		Record(c2, "y", time.Time{}, time.Millisecond)
	})
	if allocs != 0 {
		t.Fatalf("disabled tracing allocates %.1f per op, want 0", allocs)
	}
}

func BenchmarkDisabledSpanStartEnd(b *testing.B) {
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c2, sp := StartSpan(ctx, "x")
		sp.End()
		Record(c2, "y", time.Time{}, 0)
	}
}

func BenchmarkEnabledSpanStartEnd(b *testing.B) {
	ctx, root := StartRoot(context.Background(), "req", TraceContext{})
	defer root.End()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, sp := StartSpan(ctx, "x")
		sp.End()
	}
}

func TestChromeExportParsesAndNests(t *testing.T) {
	ctx, root := StartRoot(context.Background(), "req", TraceContext{})
	cctx, child := StartSpan(ctx, "child")
	_, grand := StartSpan(cctx, "grand")
	time.Sleep(time.Millisecond)
	grand.End()
	child.End()
	trace := root.End()

	var buf bytes.Buffer
	if err := trace.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Ph   string            `json:"ph"`
			Ts   float64           `json:"ts"`
			Dur  float64           `json:"dur"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("chrome export is not valid JSON: %v\n%s", err, buf.String())
	}
	if len(out.TraceEvents) != 3 {
		t.Fatalf("%d events, want 3", len(out.TraceEvents))
	}
	byName := map[string]int{}
	for i, ev := range out.TraceEvents {
		if ev.Ph != "X" {
			t.Fatalf("event %s has ph %q", ev.Name, ev.Ph)
		}
		byName[ev.Name] = i
	}
	// ts/dur nesting: child within root, grand within child.
	within := func(inner, outer string) {
		in, out2 := out.TraceEvents[byName[inner]], out.TraceEvents[byName[outer]]
		if in.Ts < out2.Ts || in.Ts+in.Dur > out2.Ts+out2.Dur+0.001 {
			t.Fatalf("%s [%f,%f] not nested in %s [%f,%f]",
				inner, in.Ts, in.Ts+in.Dur, outer, out2.Ts, out2.Ts+out2.Dur)
		}
	}
	within("child", "req")
	within("grand", "child")
	if !strings.Contains(buf.String(), trace.TraceID) {
		t.Fatal("export lacks the trace id")
	}
}

func TestNilSafety(t *testing.T) {
	var sp *Span
	sp.SetAttr("k", "v")
	if sp.End() != nil {
		t.Fatal("nil span ended with a trace")
	}
	if !sp.TraceID().IsZero() || !sp.SpanID().IsZero() {
		t.Fatal("nil span has non-zero IDs")
	}
	if SpanFromContext(context.Background()) != nil {
		t.Fatal("an untraced context carries a span")
	}
}
