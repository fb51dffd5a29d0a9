package cluster

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/plancache"
)

func testNode(t *testing.T, owner string, cfg Config) *Node {
	t.Helper()
	cfg.Self = "self:1"
	cfg.Peers = []string{"self:1", owner}
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestNodeValidation(t *testing.T) {
	if _, err := New(Config{Self: "x:1", Peers: []string{"a:1", "b:2"}}); err == nil {
		t.Error("self outside the peer list accepted")
	}
	if _, err := New(Config{Self: "a:1", Peers: nil}); err == nil {
		t.Error("empty peer list accepted")
	}
	n, err := New(Config{Self: "a:1", Peers: []string{"a:1", "b:2"}})
	if err != nil {
		t.Fatal(err)
	}
	if n.fillTimeout != 10*time.Second {
		t.Errorf("default fill timeout %v, want 10s", n.fillTimeout)
	}
	// The default ring places keys as 64 vnodes per peer under seed 1 do.
	want, err := NewRing([]string{"a:1", "b:2"}, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		k := storeKey(t, fmt.Sprintf("k%d", i))
		if got, _ := n.Owner(k); got != want.Owner(k) {
			t.Fatalf("default ring owner of k%d = %s, want %s (vnodes 64, seed 1)", i, got, want.Owner(k))
		}
	}
}

func TestFetchPlanHit(t *testing.T) {
	key := storeKey(t, "k1")
	var gotPath, gotTraceparent, gotBody string
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gotPath = r.URL.Path
		gotTraceparent = r.Header.Get("traceparent")
		b := make([]byte, 64)
		m, _ := r.Body.Read(b)
		gotBody = string(b[:m])
		w.Write([]byte(`{"plan":"v1"}`))
	}))
	defer ts.Close()

	reg := metrics.NewRegistry()
	n := testNode(t, ts.URL, Config{Registry: reg})
	out, outcome, err := n.FetchPlan(context.Background(), ts.URL, key, []byte(`{"req":1}`), nil)
	if err != nil || outcome != OutcomeHit || string(out) != `{"plan":"v1"}` {
		t.Fatalf("FetchPlan = %q, %q, %v", out, outcome, err)
	}
	if gotPath != "/internal/plan/"+key.String() {
		t.Errorf("owner saw path %q", gotPath)
	}
	if gotBody != `{"req":1}` {
		t.Errorf("owner saw body %q", gotBody)
	}
	if gotTraceparent != "" {
		t.Errorf("no span in ctx, but traceparent %q was sent", gotTraceparent)
	}
	var buf strings.Builder
	reg.WritePrometheus(&buf)
	if !strings.Contains(buf.String(), `cachemapd_peer_fill_total{outcome="hit"} 1`) {
		t.Errorf("fill hit not counted:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), "cachemapd_ring_peers 2") {
		t.Errorf("ring peers gauge missing:\n%s", buf.String())
	}
	if h := n.Health(); h[1].State != "ok" || h[1].Attempts != 1 {
		t.Errorf("peer health after success = %+v", h[1])
	}
}

func TestFetchPlanRefusedAndError(t *testing.T) {
	key := storeKey(t, "k2")
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusTooManyRequests)
	}))
	n := testNode(t, ts.URL, Config{})
	if _, outcome, err := n.FetchPlan(context.Background(), ts.URL, key, nil, nil); outcome != OutcomeRefused || err == nil {
		t.Fatalf("429 fill: outcome %q, err %v; want refused", outcome, err)
	}
	if h := n.Health(); h[1].State != "down" || h[1].ConsecutiveFailures != 1 ||
		h[1].LastError == "" || h[1].LastErrorAgeMS < 0 {
		t.Fatalf("peer health after refusal = %+v", h[1])
	}

	// Kill the owner: transport errors classify as OutcomeError and the
	// failure run grows.
	ts.Close()
	if _, outcome, err := n.FetchPlan(context.Background(), ts.URL, key, nil, nil); outcome != OutcomeError || err == nil {
		t.Fatalf("dead owner: outcome %q, err %v; want error", outcome, err)
	}
	if h := n.Health(); h[1].ConsecutiveFailures != 2 || h[1].Failures != 2 {
		t.Fatalf("peer health after death = %+v", h[1])
	}
}

func TestFetchPlanTimeout(t *testing.T) {
	key := storeKey(t, "k3")
	release := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		<-release
	}))
	defer ts.Close()
	defer close(release) // LIFO: unblock the handler before ts.Close waits on it
	n := testNode(t, ts.URL, Config{FillTimeout: 30 * time.Millisecond})
	start := time.Now()
	_, outcome, err := n.FetchPlan(context.Background(), ts.URL, key, nil, nil)
	if outcome != OutcomeTimeout || err == nil {
		t.Fatalf("slow owner: outcome %q, err %v; want timeout", outcome, err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("fill timeout did not bound the fetch (%v)", d)
	}
}

// TestFetchPlanFaultInjection: the caller's inject runs once per fetch, at
// FaultSite, before the fetch leaves the node. Its error fails the fetch
// as an error, or as a timeout when it ended with the context (an
// injected delay cut by the deadline), and the peer is never contacted.
func TestFetchPlanFaultInjection(t *testing.T) {
	key := storeKey(t, "k4")
	contacted := false
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		contacted = true
		w.Write([]byte("{}"))
	}))
	defer ts.Close()

	var sites []string
	fail := func(_ context.Context, site string) error {
		sites = append(sites, site)
		return &faults.InjectedError{Site: site}
	}
	n := testNode(t, ts.URL, Config{})
	_, outcome, err := n.FetchPlan(context.Background(), ts.URL, key, nil, fail)
	var ie *faults.InjectedError
	if outcome != OutcomeError || !isInjected(err, &ie) || ie.Site != FaultSite {
		t.Fatalf("injected error: outcome %q, err %v", outcome, err)
	}
	if len(sites) != 1 || sites[0] != FaultSite {
		t.Fatalf("inject ran at %q, want once at %q", sites, FaultSite)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cut := func(ctx context.Context, _ string) error {
		cancel()
		return faults.Sleep(ctx, time.Hour)
	}
	if _, outcome, err := n.FetchPlan(ctx, ts.URL, key, nil, cut); outcome != OutcomeTimeout || err == nil {
		t.Fatalf("injected delay cut by the context: outcome %q, err %v; want timeout", outcome, err)
	}
	if contacted {
		t.Fatal("an injected fetch failure still contacted the peer")
	}
	if h := n.Health(); h[1].ConsecutiveFailures != 2 {
		t.Fatalf("peer health after two injected failures = %+v", h[1])
	}
}

func isInjected(err error, target **faults.InjectedError) bool {
	if err == nil {
		return false
	}
	ie, ok := err.(*faults.InjectedError)
	if ok {
		*target = ie
	}
	return ok
}

func storeKey(t *testing.T, s string) plancache.Key {
	t.Helper()
	k, err := plancache.KeyOf(s)
	if err != nil {
		t.Fatal(err)
	}
	return k
}
