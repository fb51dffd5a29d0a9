package quality

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/chunking"
	"repro/internal/hierarchy"
	"repro/internal/iosim"
	"repro/internal/mapping"
	"repro/internal/polyhedral"
)

// testSample builds a runnable shadow sample: a 4-client layered tree, a
// 1-D scan of n iterations, and a block-contiguous plan over it.
func testSample(n int64, mode string) Sample {
	tree := hierarchy.NewLayered(
		hierarchy.LayerSpec{Count: 1, CacheChunks: 16, Label: "SN"},
		hierarchy.LayerSpec{Count: 2, CacheChunks: 8, Label: "IO"},
		hierarchy.LayerSpec{Count: 4, CacheChunks: 4, Label: "CN"},
	)
	nest := polyhedral.NewNest("scan", []int64{0}, []int64{n - 1})
	data := chunking.NewDataSpace(32, chunking.Array{Name: "A", Dims: []int64{n}, ElemSize: 8})
	prog := iosim.Program{
		Nest: nest,
		Refs: []polyhedral.Ref{polyhedral.SimpleRef(0, 1, []int{0}, []int64{0}, polyhedral.Read)},
		Data: data,
	}
	plan := &mapping.Plan{Schema: mapping.PlanSchemaVersion, Clients: 4, TotalIterations: n}
	per := n / 4
	for c := int64(0); c < 4; c++ {
		hi := (c + 1) * per
		if c == 3 {
			hi = n
		}
		plan.Work = append(plan.Work, []mapping.PlanBlock{{Runs: [][2]int64{{c * per, hi}}}})
	}
	raw, err := json.Marshal(plan)
	if err != nil {
		panic(err)
	}
	return Sample{
		TraceID: fmt.Sprintf("t-%s", mode),
		Family:  "scan",
		Mode:    mode,
		Tree:    tree,
		Prog:    prog,
		Plan:    raw,
		Params:  iosim.DefaultParams(),
	}
}

func TestDrawDeterminism(t *testing.T) {
	set := func(seed uint64, rate float64, n int) []int {
		var out []int
		for i := 1; i <= n; i++ {
			if Drawn(seed, uint64(i), rate) {
				out = append(out, i)
			}
		}
		return out
	}
	a := set(42, 0.3, 2000)
	b := set(42, 0.3, 2000)
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatal("same seed selected different sets")
	}
	if len(a) == 0 || len(a) == 2000 {
		t.Fatalf("rate 0.3 sampled %d/2000", len(a))
	}
	// ~30% of 2000 with generous slack.
	if len(a) < 400 || len(a) > 800 {
		t.Fatalf("rate 0.3 sampled %d/2000, far from expectation", len(a))
	}
	c := set(43, 0.3, 2000)
	if fmt.Sprint(a) == fmt.Sprint(c) {
		t.Fatal("different seeds selected identical sets")
	}
	if got := len(set(7, 1.0, 100)); got != 100 {
		t.Fatalf("rate 1.0 sampled %d/100", got)
	}
}

// goid extracts the current goroutine's id from its stack header — test
// plumbing to prove where the shadow simulation actually ran.
func goid() string {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	fields := bytes.Fields(buf)
	if len(fields) < 2 {
		return "?"
	}
	return string(fields[1])
}

func TestShadowSimRunsOffCallerGoroutine(t *testing.T) {
	recs := make(chan struct {
		rec Record
		gid string
	}, 1)
	s := NewSampler(Config{Rate: 1, Seed: 1, OnRecord: func(r Record) {
		recs <- struct {
			rec Record
			gid string
		}{r, goid()}
	}}, nil)
	defer s.Close()
	if !s.Offer(testSample(100, ModeFull)) {
		t.Fatal("rate-1 offer not enqueued")
	}
	select {
	case got := <-recs:
		if got.gid == goid() {
			t.Fatal("shadow simulation ran on the offering goroutine")
		}
		if got.rec.Err != "" {
			t.Fatalf("shadow sim failed: %s", got.rec.Err)
		}
		if got.rec.Iterations != 100 || len(got.rec.MissRates) != 3 {
			t.Fatalf("unexpected record: %+v", got.rec)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("shadow record never arrived")
	}
	snap := s.Ledger().Snapshot()
	st, ok := snap["scan"][ModeFull]
	if !ok || st.Samples != 1 || st.Window != 1 {
		t.Fatalf("ledger snapshot missing record: %+v", snap)
	}
	if st.MissRates[0] <= 0 || st.MissRates[0] > 1 {
		t.Fatalf("L1 miss rate %v out of range", st.MissRates[0])
	}
	if c := s.Counts(); c.Sampled != 1 || c.Overflow != 0 {
		t.Fatalf("counts: %+v", c)
	}
}

func TestInertSamplerOwnsNoGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	s := NewSampler(Config{Rate: 0}, nil)
	if s.Active() {
		t.Fatal("rate-0 sampler reports active")
	}
	if s.Offer(testSample(64, ModeFull)) {
		t.Fatal("rate-0 sampler enqueued")
	}
	s.Close()
	// Allow the runtime a moment to settle, then require no growth.
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines grew %d -> %d with sampling off", before, after)
	}
	if c := s.Counts(); c.Sampled != 0 {
		t.Fatalf("inert sampler recorded samples: %+v", c)
	}
}

func TestOfferShedsWhenQueueFull(t *testing.T) {
	busy := make(chan struct{})
	var once sync.Once
	release := make(chan struct{})
	s := NewSampler(Config{Rate: 1, Seed: 1, OnRecord: func(Record) {
		once.Do(func() { close(busy) })
		<-release
	}}, nil)
	defer s.Close()
	// First sample occupies the worker (blocked in OnRecord)...
	if !s.Offer(testSample(16, ModeFull)) {
		t.Fatal("first offer rejected")
	}
	<-busy
	// ...the next queueCap fill the queue, and one more must shed.
	for i := 0; i < queueCap; i++ {
		if !s.Offer(testSample(16, ModeCached)) {
			t.Fatalf("offer %d rejected before the queue was full", i+2)
		}
	}
	if s.Offer(testSample(16, ModeIncremental)) {
		t.Fatal("offer accepted past queue capacity")
	}
	close(release)
	if c := s.Counts(); c.Sampled != queueCap+1 || c.Overflow != 1 {
		t.Fatalf("counts: %+v", c)
	}
}

func TestSamplerDeterministicAcrossRuns(t *testing.T) {
	// At most queueCap offers, so none can overflow and Offer's answer is
	// the seeded draw alone: an overflow would report false, and how many
	// overflow would depend on how fast the worker drains the queue.
	run := func(seed uint64) []bool {
		s := NewSampler(Config{Rate: 0.5, Seed: seed}, nil)
		defer s.Close()
		out := make([]bool, queueCap)
		for i := range out {
			// Inert payload: decisions alone are under test.
			out[i] = s.Offer(testSample(16, ModeFull))
		}
		return out
	}
	a, b, c := run(99), run(99), run(100)
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatal("same seed produced different sampled request sets")
	}
	if fmt.Sprint(a) == fmt.Sprint(c) {
		t.Fatal("different seeds produced identical sampled request sets")
	}
}

func TestLedgerRingAndStats(t *testing.T) {
	l := NewLedger()
	const n = ringSize + 6
	for i := 0; i < n; i++ {
		l.Add(Record{
			TraceID:   fmt.Sprintf("t%d", i),
			Family:    "f",
			Mode:      ModeFull,
			MissRates: []float64{float64(i), 1},
			Imbalance: 2,
			ExecMS:    10,
		})
	}
	l.Add(Record{Family: "f", Mode: ModeDegradedStale, Err: "boom"})
	snap := l.Snapshot()
	st := snap["f"][ModeFull]
	if st.Samples != n || st.Window != ringSize {
		t.Fatalf("samples/window: %+v", st)
	}
	// Ring holds records 6..69: mean L1 miss "rate" (6+69)/2 = 37.5.
	if st.MissRates[0] != 37.5 || st.MissRates[1] != 1 {
		t.Fatalf("windowed means: %v", st.MissRates)
	}
	if st.Imbalance != 2 || st.ExecMS != 10 {
		t.Fatalf("windowed means: %+v", st)
	}
	if st.LastTraceID != "t69" {
		t.Fatalf("LastTraceID = %q, want t69", st.LastTraceID)
	}
	deg := snap["f"][ModeDegradedStale]
	if deg.Errors != 1 || deg.Samples != 1 {
		t.Fatalf("error accounting: %+v", deg)
	}
}

func TestCloseIsIdempotentAndStopsOffers(t *testing.T) {
	s := NewSampler(Config{Rate: 1, Seed: 1}, nil)
	s.Close()
	s.Close()
	if s.Active() {
		t.Fatal("closed sampler reports active")
	}
	if s.Offer(testSample(16, ModeFull)) {
		t.Fatal("closed sampler enqueued")
	}
}

// TestSamplerSurvivesPanics: an OnRecord that panics once costs only that
// call, since the record is already in the ledger, and a shadow simulation
// that panics becomes its sample's error verdict. Both panics reach
// onPanic with their stacks, and the worker goes on: the next sample lands
// in the ledger and reaches OnRecord.
func TestSamplerSurvivesPanics(t *testing.T) {
	var once sync.Once
	recs := make(chan Record, 2)
	var mu sync.Mutex
	var panics []string
	s := NewSampler(Config{Rate: 1, Seed: 1, OnRecord: func(r Record) {
		once.Do(func() { panic("record boom") })
		recs <- r
	}}, func(p any, stack []byte) {
		mu.Lock()
		defer mu.Unlock()
		panics = append(panics, fmt.Sprint(p))
		if !strings.Contains(string(stack), "panic(") {
			t.Errorf("reported stack does not reach the panic:\n%s", stack)
		}
	})
	defer s.Close()
	broken := testSample(16, ModeCached)
	broken.Params.Policy = 99 // no such cache policy: the simulator panics
	for _, smp := range []Sample{testSample(16, ModeFull), broken, testSample(16, ModeIncremental)} {
		if !s.Offer(smp) {
			t.Fatalf("rate-1 offer of %s not enqueued", smp.Mode)
		}
	}
	for _, want := range []string{ModeCached, ModeIncremental} {
		select {
		case r := <-recs:
			if r.Mode != want || strings.HasPrefix(r.Err, "panic: ") != (want == ModeCached) {
				t.Fatalf("record %+v; want mode %s, a panic verdict only for the broken simulation", r, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("no %s record arrived after OnRecord panicked", want)
		}
	}
	snap := s.Ledger().Snapshot()["scan"]
	if snap[ModeFull].Samples != 1 || snap[ModeCached].Errors != 1 || snap[ModeIncremental].Samples != 1 {
		t.Fatalf("ledger %+v; want all three samples, the broken one as an error", snap)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(panics) != 2 || panics[0] != "record boom" {
		t.Fatalf("onPanic saw %q; want the OnRecord panic, then the simulation's", panics)
	}
}
