package faults

import (
	"context"
	"encoding/json"
	"errors"
	"sync"
	"testing"
	"time"
)

func mustRules(t *testing.T, inj *Injector, rules ...Rule) {
	t.Helper()
	if err := inj.SetRules(rules); err != nil {
		t.Fatal(err)
	}
}

// decisions drains n evaluations at site into a fired/not-fired sequence.
func decisions(inj *Injector, site string, n int) []bool {
	out := make([]bool, n)
	for i := range out {
		out[i] = inj.Evaluate(site).Fired()
	}
	return out
}

// TestDeterministicUnderFixedSeed: the per-site fault sequence is a pure
// function of the seed — two injectors with the same seed and rules agree
// call-for-call, and interleaving evaluations of other sites in between
// does not perturb a site's sequence.
func TestDeterministicUnderFixedSeed(t *testing.T) {
	rules := []Rule{
		{Kind: KindError, Site: "pipeline/cluster", Prob: 0.3},
		{Kind: KindLatency, Site: "pipeline/tags", Prob: 0.5, Delay: Duration(time.Millisecond)},
	}
	a, b := New(42), New(42)
	mustRules(t, a, rules...)
	mustRules(t, b, rules...)

	seqA := decisions(a, "pipeline/cluster", 200)

	// b interleaves heavy traffic on another site between each evaluation.
	seqB := make([]bool, 200)
	for i := range seqB {
		for j := 0; j < i%5; j++ {
			b.Evaluate("pipeline/tags")
		}
		seqB[i] = b.Evaluate("pipeline/cluster").Fired()
	}
	for i := range seqA {
		if seqA[i] != seqB[i] {
			t.Fatalf("call %d: seed-42 injectors disagree (%v vs %v)", i, seqA[i], seqB[i])
		}
	}

	fired := 0
	for _, f := range seqA {
		if f {
			fired++
		}
	}
	if fired < 30 || fired > 90 { // 200 draws at p=0.3
		t.Errorf("fired %d/200 at p=0.3; the draw is not uniform", fired)
	}

	c := New(43)
	mustRules(t, c, rules...)
	if seqC := decisions(c, "pipeline/cluster", 200); equalBools(seqA, seqC) {
		t.Error("different seeds produced identical sequences")
	}
}

func equalBools(a, b []bool) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestProbabilityEdges(t *testing.T) {
	inj := New(7)
	mustRules(t, inj,
		Rule{Kind: KindError, Site: "never", Prob: 0},
		Rule{Kind: KindCrash, Site: "always", Prob: 1},
	)
	for i := 0; i < 100; i++ {
		if inj.Evaluate("never").Fired() {
			t.Fatal("p=0 rule fired")
		}
		d := inj.Evaluate("always")
		if !d.Crash {
			t.Fatal("p=1 crash rule did not fire")
		}
	}
	if inj.Evaluate("unarmed").Fired() {
		t.Fatal("unarmed site fired")
	}
}

func TestCombinedDecision(t *testing.T) {
	inj := New(1)
	mustRules(t, inj,
		Rule{Kind: KindLatency, Site: "s", Prob: 1, Delay: Duration(3 * time.Millisecond)},
		Rule{Kind: KindError, Site: "s", Prob: 1},
	)
	d := inj.Evaluate("s")
	if d.Delay != 3*time.Millisecond {
		t.Errorf("delay = %v", d.Delay)
	}
	var ie *InjectedError
	if !errors.As(d.Err, &ie) || ie.Site != "s" {
		t.Errorf("err = %v", d.Err)
	}
	if d.Crash {
		t.Error("crash fired without a crash rule")
	}
}

func TestNilInjectorInert(t *testing.T) {
	var inj *Injector
	if inj.Evaluate("any").Fired() {
		t.Fatal("nil injector fired")
	}
	if inj.Status() != nil {
		t.Fatal("nil injector reported rules")
	}
}

func TestStatusCounts(t *testing.T) {
	inj := New(11)
	mustRules(t, inj,
		Rule{Kind: KindError, Site: "b", Prob: 1},
		Rule{Kind: KindError, Site: "a", Prob: 0},
	)
	for i := 0; i < 10; i++ {
		inj.Evaluate("a")
		inj.Evaluate("b")
	}
	st := inj.Status()
	if len(st) != 2 || st[0].Site != "a" || st[1].Site != "b" {
		t.Fatalf("status order: %+v", st)
	}
	if st[0].Calls != 10 || st[0].Fired != 0 {
		t.Errorf("site a: %+v", st[0])
	}
	if st[1].Calls != 10 || st[1].Fired != 10 {
		t.Errorf("site b: %+v", st[1])
	}
	// SetRules resets counters.
	mustRules(t, inj, Rule{Kind: KindError, Site: "b", Prob: 1})
	if st := inj.Status(); st[0].Calls != 0 {
		t.Errorf("counters survived SetRules: %+v", st)
	}
}

func TestParseSpec(t *testing.T) {
	rules, err := ParseSpec("latency:pipeline/tags:0.2:50ms; error:pipeline/cluster:0.1 ;crash:plancache/leader:0.05")
	if err != nil {
		t.Fatal(err)
	}
	want := []Rule{
		{Kind: KindLatency, Site: "pipeline/tags", Prob: 0.2, Delay: Duration(50 * time.Millisecond)},
		{Kind: KindError, Site: "pipeline/cluster", Prob: 0.1},
		{Kind: KindCrash, Site: "plancache/leader", Prob: 0.05},
	}
	if len(rules) != len(want) {
		t.Fatalf("rules = %+v", rules)
	}
	for i := range want {
		if rules[i] != want[i] {
			t.Errorf("rule %d = %+v, want %+v", i, rules[i], want[i])
		}
	}
	if rules, err := ParseSpec("  "); err != nil || rules != nil {
		t.Errorf("empty spec: %v, %v", rules, err)
	}

	for _, bad := range []string{
		"latency:pipeline/tags:0.2",   // latency without delay
		"error:pipeline/cluster:1.5",  // probability out of range
		"nosuch:site:0.5",             // unknown kind
		"error::0.5",                  // empty site
		"error:site:x",                // bad probability
		"latency:site:0.5:notadur",    // bad delay
		"error:site:0.5:50ms",         // delay on non-latency rule
		"error:site",                  // too few fields
		"latency:site:0.5:50ms:extra", // too many fields
	} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) accepted", bad)
		}
	}
}

func TestDurationJSON(t *testing.T) {
	b, err := json.Marshal(Rule{Kind: KindLatency, Site: "s", Prob: 1, Delay: Duration(50 * time.Millisecond)})
	if err != nil {
		t.Fatal(err)
	}
	var r Rule
	if err := json.Unmarshal(b, &r); err != nil {
		t.Fatal(err)
	}
	if r.Delay != Duration(50*time.Millisecond) {
		t.Errorf("round trip delay = %v (%s)", r.Delay, b)
	}
	var r2 Rule
	if err := json.Unmarshal([]byte(`{"kind":"latency","site":"s","prob":1,"delay":1000000}`), &r2); err != nil {
		t.Fatal(err)
	}
	if r2.Delay != Duration(time.Millisecond) {
		t.Errorf("numeric delay = %v", r2.Delay)
	}
	if err := json.Unmarshal([]byte(`{"delay":"bogus"}`), &r2); err == nil {
		t.Error("bad duration string accepted")
	}
}

func TestSleepHonorsContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := Sleep(ctx, time.Hour); err == nil {
		t.Fatal("Sleep outlived a canceled context")
	}
	start := time.Now()
	if err := Sleep(context.Background(), time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if time.Since(start) < time.Millisecond {
		t.Fatal("Sleep returned early")
	}
}

func TestConcurrentEvaluate(t *testing.T) {
	inj := New(3)
	mustRules(t, inj, Rule{Kind: KindError, Site: "s", Prob: 0.5})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 250; i++ {
				inj.Evaluate("s")
			}
		}()
	}
	wg.Wait()
	st := inj.Status()
	if st[0].Calls != 2000 {
		t.Fatalf("calls = %d, want 2000", st[0].Calls)
	}
}
