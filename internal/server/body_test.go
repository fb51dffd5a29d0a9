package server

import (
	"bytes"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"repro/internal/faults"
	"repro/internal/planstore"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// volatileJSON matches the members of a response body that measure time or
// heap traffic rather than describe the plan: the timings become 0 and the
// process-global stage alloc delta (omitted when zero) is dropped.
var volatileJSON = regexp.MustCompile(`"(elapsed_ms|duration_ms|stale_age_ms)":[-+0-9.eE]+|,"alloc_bytes":[0-9]+`)

func maskVolatile(b []byte) []byte {
	return volatileJSON.ReplaceAllFunc(b, func(m []byte) []byte {
		if bytes.HasPrefix(m, []byte(`,"alloc_bytes"`)) {
			return nil
		}
		return append(m[:bytes.IndexByte(m, ':')+1], '0')
	})
}

// TestMapBodiesGolden pins whole response bodies, byte for byte up to the
// masked timings: a computed plan, a memory hit, a disk hit, a
// stale-degraded answer and a two-spec batch. The bodies include the
// encoder's HTML escaping and trailing newline, so any change to how a
// plan reaches the wire shows here.
func TestMapBodiesGolden(t *testing.T) {
	inj := faults.New(1)
	s := newTestServer(t, Config{
		PlanCacheSize: 1,
		Store:         StoreConfig{Dir: t.TempDir(), Fsync: planstore.FsyncAlways},
		Degraded:      true,
		Faults:        inj,
	})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	check := func(name, path string, req any) {
		t.Helper()
		resp, body := postJSON(t, ts.Client(), ts.URL+path, req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", name, resp.StatusCode, body)
		}
		got := maskVolatile(body)
		golden := filepath.Join("testdata", "bodies", name+".json")
		if *updateGolden {
			if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(golden, got, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s body drifted from %s:\n got %s\nwant %s", name, golden, got, want)
		}
	}

	check("computed", "/v1/map", synthReq(128))
	check("memory_hit", "/v1/map", synthReq(128))
	// A second plan displaces the first from the 1-plan memory tier; the
	// flush lands both records before the disk is consulted.
	postJSON(t, ts.Client(), ts.URL+"/v1/map", synthReq(96))
	s.planWB.Flush()
	check("disk_hit", "/v1/map", synthReq(128))

	// A drifted topology misses, its leader crashes, and the stale tier
	// answers with the extent-128 plan.
	if err := inj.SetRules([]faults.Rule{{Kind: faults.KindCrash, Site: "plancache/leader", Prob: 1}}); err != nil {
		t.Fatal(err)
	}
	drifted := synthReq(128)
	drifted.Topology = "1/2/4@16,8,5"
	check("degraded_stale", "/v1/map", drifted)
	if err := inj.SetRules(nil); err != nil {
		t.Fatal(err)
	}

	sibling := synthReq(64)
	sibling.Topology = "1/2/4@16,8,5"
	check("batch", "/v1/map/batch", BatchMapRequest{Requests: []MapRequest{synthReq(64), sibling}})
}
