package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"time"
)

// SpanData is one completed span of a Trace.
type SpanData struct {
	Name     string    `json:"name"`
	SpanID   string    `json:"span_id"`
	ParentID string    `json:"parent_id,omitempty"`
	Start    time.Time `json:"start"`
	// DurationNS is the span's wall time in nanoseconds.
	DurationNS int64  `json:"duration_ns"`
	Attrs      []Attr `json:"attrs,omitempty"`
}

// Trace is one completed request trace: the root span's identity plus
// every span recorded before the root ended (root span last).
type Trace struct {
	TraceID string    `json:"trace_id"`
	Root    string    `json:"root"`
	Start   time.Time `json:"start"`
	// DurationNS is the root span's wall time in nanoseconds.
	DurationNS int64      `json:"duration_ns"`
	Spans      []SpanData `json:"spans"`
}

// chromeEvent is one Chrome trace_event "complete" (ph=X) event.
type chromeEvent struct {
	Name string            `json:"name"`
	Ph   string            `json:"ph"`
	Ts   float64           `json:"ts"`  // microseconds from trace start
	Dur  float64           `json:"dur"` // microseconds
	Pid  int               `json:"pid"`
	Tid  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// WriteChrome renders the trace in the Chrome trace_event JSON format
// (an object with a "traceEvents" array of ph="X" complete events),
// loadable in chrome://tracing and Perfetto. Timestamps are microseconds
// relative to the trace start.
func (t *Trace) WriteChrome(w io.Writer) error {
	events := make([]chromeEvent, 0, len(t.Spans))
	base := t.Start
	for _, sp := range t.Spans {
		args := map[string]string{"span_id": sp.SpanID}
		if sp.ParentID != "" {
			args["parent_id"] = sp.ParentID
		}
		for _, a := range sp.Attrs {
			args[a.Key] = a.Value
		}
		events = append(events, chromeEvent{
			Name: sp.Name,
			Ph:   "X",
			Ts:   float64(sp.Start.Sub(base).Nanoseconds()) / 1e3,
			Dur:  float64(sp.DurationNS) / 1e3,
			Pid:  1,
			Tid:  1,
			Args: args,
		})
	}
	out := struct {
		TraceEvents     []chromeEvent     `json:"traceEvents"`
		DisplayTimeUnit string            `json:"displayTimeUnit"`
		Metadata        map[string]string `json:"metadata,omitempty"`
	}{
		TraceEvents:     events,
		DisplayTimeUnit: "ms",
		Metadata:        map[string]string{"trace_id": t.TraceID, "root": t.Root},
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(out); err != nil {
		return fmt.Errorf("obs: encoding chrome trace: %w", err)
	}
	return nil
}
