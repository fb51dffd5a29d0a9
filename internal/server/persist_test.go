package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/mapping"
	"repro/internal/pipeline"
	"repro/internal/planstore"
	"repro/internal/workloads"
)

// TestPersistentWarmRestart is the warm-start proof at the API level: a
// plan computed before a restart is served as a cache hit after it, with
// zero pipeline computes on the second process.
func TestPersistentWarmRestart(t *testing.T) {
	dir := t.TempDir()
	mkCfg := func() Config {
		return Config{Store: StoreConfig{Dir: dir, Fsync: planstore.FsyncAlways}}
	}

	s1, err := NewServer(mkCfg())
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	ts1 := httptest.NewServer(s1.Handler())
	resp, body := postJSON(t, ts1.Client(), ts1.URL+"/v1/map", synthReq(64))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first serve: status %d: %s", resp.StatusCode, body)
	}
	var mr MapResponse
	if err := json.Unmarshal(body, &mr); err != nil {
		t.Fatal(err)
	}
	if mr.Cached {
		t.Fatal("cold first serve reported cached")
	}
	wantPlan := mr.Plan
	ts1.Close()
	s1.Close() // drains the write-behind queue and closes the log

	s2, err := NewServer(mkCfg())
	if err != nil {
		t.Fatalf("NewServer (restart): %v", err)
	}
	defer s2.Close()
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()

	if warm := metricValue(t, ts2, "cachemapd_planstore_warm_records"); warm < 1 {
		t.Fatalf("warm_records = %v after restart, want >= 1", warm)
	}
	resp, body = postJSON(t, ts2.Client(), ts2.URL+"/v1/map", synthReq(64))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-restart serve: status %d: %s", resp.StatusCode, body)
	}
	var mr2 MapResponse
	if err := json.Unmarshal(body, &mr2); err != nil {
		t.Fatal(err)
	}
	if !mr2.Cached {
		t.Fatal("post-restart serve of a persisted plan was not a cache hit")
	}
	got, _ := json.Marshal(mr2.Plan)
	want, _ := json.Marshal(wantPlan)
	if string(got) != string(want) {
		t.Fatalf("restarted plan differs:\n got %s\nwant %s", got, want)
	}
	if computes := metricValue(t, ts2, "cachemapd_pipeline_computes_total"); computes != 0 {
		t.Fatalf("restart re-ran the pipeline %v times, want 0", computes)
	}
	if skipped := metricValue(t, ts2, "cachemapd_planstore_skipped_records_total"); skipped != 0 {
		t.Fatalf("clean restart skipped %v records", skipped)
	}
}

// TestRepairLookupAfterWarmRestart: a disk-restored plan carries no
// resumable clustering, so after a restart a near-miss request that finds
// it in the stale tier cannot be repaired. That lookup must count as a
// repair miss, not a hit, and the request runs the full pipeline.
func TestRepairLookupAfterWarmRestart(t *testing.T) {
	dir := t.TempDir()
	mkCfg := func() Config {
		return Config{
			Store:  StoreConfig{Dir: dir, Fsync: planstore.FsyncAlways},
			Repair: RepairConfig{Enabled: true},
		}
	}
	s1, err := NewServer(mkCfg())
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	if _, err := s1.ComputePlan(synthReq(128)); err != nil {
		t.Fatal(err)
	}
	s1.Close()

	s2, err := NewServer(mkCfg())
	if err != nil {
		t.Fatalf("NewServer (restart): %v", err)
	}
	defer s2.Close()
	if mr, err := s2.ComputePlan(synthReq(128)); err != nil || !mr.Cached {
		t.Fatalf("post-restart serve: cached %v, err %v; want a disk hit", mr != nil && mr.Cached, err)
	}
	near := synthReq(128)
	near.Topology = "1/2/4@16,8,5"
	mr, err := s2.ComputePlan(near)
	if err != nil {
		t.Fatal(err)
	}
	if mr.Cached || mr.Replanned != ReplanFull {
		t.Fatalf("near miss: cached %v, replanned %q; want a full compute", mr.Cached, mr.Replanned)
	}
	if hits, misses := s2.repairHits.Value(), s2.repairMisses.Value(); hits != 0 || misses != 1 {
		t.Fatalf("repair lookups: %d hits, %d misses; want 0, 1", hits, misses)
	}
	if computes := s2.computes.Value(); computes != 1 {
		t.Fatalf("computes = %d, want 1", computes)
	}
}

// TestPersistentDiskHitAfterMemEviction: with a 1-plan in-memory LRU, an
// entry displaced from memory is still served from disk (and promoted
// back) rather than recomputed.
func TestPersistentDiskHitAfterMemEviction(t *testing.T) {
	s, err := NewServer(Config{
		PlanCacheSize: 1,
		Store:         StoreConfig{Dir: t.TempDir()},
	})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/map", synthReq(64)); resp.StatusCode != http.StatusOK {
		t.Fatalf("spec A: status %d: %s", resp.StatusCode, body)
	}
	if resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/map", synthReq(96)); resp.StatusCode != http.StatusOK {
		t.Fatalf("spec B: status %d: %s", resp.StatusCode, body)
	}
	// Spec B displaced spec A from the 1-entry memory front. Make sure
	// both appends have landed before consulting the disk tier.
	s.planWB.Flush()

	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/map", synthReq(64))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("spec A again: status %d: %s", resp.StatusCode, body)
	}
	var mr MapResponse
	if err := json.Unmarshal(body, &mr); err != nil {
		t.Fatal(err)
	}
	if !mr.Cached {
		t.Fatal("memory-evicted plan recomputed instead of served from disk")
	}
	if hits := metricValue(t, ts, "cachemapd_planstore_disk_hits_total"); hits < 1 {
		t.Fatalf("disk_hits_total = %v, want >= 1", hits)
	}
	if computes := metricValue(t, ts, "cachemapd_pipeline_computes_total"); computes != 2 {
		t.Fatalf("computes_total = %v, want exactly the 2 cold specs", computes)
	}
	// Each memory eviction counts, the disk-hit promotion's included.
	if evictions := metricValue(t, ts, "cachemapd_plan_cache_evictions_total"); evictions < 1 {
		t.Fatalf("plan_cache_evictions_total = %v after 2 plans in a 1-plan memory tier, want >= 1", evictions)
	}
}

// TestRottenRecordIsAMiss: a live plan-log record that fails the read path
// is a read error and a recompute, never a served plan. In ChecksumFails a
// digit of the plan is changed on disk after the server opened the log, so
// the record stays valid JSON and only its CRC fails; in PlanNotJSON a
// record whose CRC is right but whose plan is not valid JSON was written
// before the server opened the log. The 1-plan memory tier sends each
// request to the disk, and each case serves the plan a fresh compute gives.
func TestRottenRecordIsAMiss(t *testing.T) {
	reqA, reqB := synthReq(64), synthReq(96)
	keyA, err := PlanKey(reqA)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := newTestServer(t, Config{}).ComputePlan(reqA)
	if err != nil {
		t.Fatal(err)
	}
	want := fresh.raw.raw
	// serveA asks for plan A and checks that the disk read failed, the
	// pipeline ran and the fresh plan was served.
	serveA := func(t *testing.T, ts *httptest.Server) {
		t.Helper()
		readErrors := metricValue(t, ts, "cachemapd_planstore_read_errors_total")
		computes := metricValue(t, ts, "cachemapd_pipeline_computes_total")
		resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/map", reqA)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
		var got struct {
			Plan json.RawMessage `json:"plan"`
		}
		if err := json.Unmarshal(body, &got); err != nil {
			t.Fatalf("body does not decode: %v", err)
		}
		if !bytes.Equal(got.Plan, want) {
			t.Fatalf("served plan differs from a fresh compute:\n got %s\nwant %s", got.Plan, want)
		}
		if n := metricValue(t, ts, "cachemapd_planstore_read_errors_total") - readErrors; n != 1 {
			t.Errorf("read errors rose by %v, want 1", n)
		}
		if n := metricValue(t, ts, "cachemapd_pipeline_computes_total") - computes; n != 1 {
			t.Errorf("computes rose by %v, want 1", n)
		}
	}

	t.Run("ChecksumFails", func(t *testing.T) {
		dir := t.TempDir()
		s := newTestServer(t, Config{PlanCacheSize: 1, Store: StoreConfig{Dir: dir}})
		defer s.Close()
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		for _, req := range []MapRequest{reqA, reqB} { // B displaces A from memory
			if resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/map", req); resp.StatusCode != http.StatusOK {
				t.Fatalf("cold serve: status %d: %s", resp.StatusCode, body)
			}
		}
		s.planWB.Flush()
		f, err := os.OpenFile(filepath.Join(dir, "plans.log"), os.O_RDWR, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		data, err := io.ReadAll(f)
		if err != nil {
			t.Fatal(err)
		}
		at := bytes.Index(data, want)
		if at < 0 || bytes.Count(data, want) != 1 {
			t.Fatal("plan A is not in the log exactly once")
		}
		at += bytes.LastIndexAny(want, "123456789")
		if _, err := f.WriteAt([]byte{(data[at]-'0')%9 + '1'}, int64(at)); err != nil {
			t.Fatal(err)
		}
		serveA(t, ts)
	})

	t.Run("PlanNotJSON", func(t *testing.T) {
		dir := t.TempDir()
		pass := func(b []byte) ([]byte, error) { return b, nil }
		raw, err := planstore.Open(planstore.Options{Dir: dir, Schema: uint32(mapping.PlanSchemaVersion)},
			planstore.Codec[[]byte]{Encode: pass, Decode: pass})
		if err != nil {
			t.Fatal(err)
		}
		// A bracket matcher finds this plan's end; only a syntax check
		// rejects its trailing comma.
		raw.Put(keyA, []byte(`{"plan":`+string(want[:len(want)-1])+`,},"replanned":"full"}`))
		if err := raw.Close(); err != nil {
			t.Fatal(err)
		}
		s := newTestServer(t, Config{PlanCacheSize: 1, Store: StoreConfig{Dir: dir}})
		defer s.Close()
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		if warm := metricValue(t, ts, "cachemapd_planstore_warm_records"); warm != 1 {
			t.Fatalf("warm records = %v, want the rotten one", warm)
		}
		serveA(t, ts)
	})
}

// TestSnapshotEndpoints covers GET|POST /debug/cache/snapshot: 404 without
// a store, stats on GET, flush+compact on POST.
func TestSnapshotEndpoints(t *testing.T) {
	t.Run("NoStore", func(t *testing.T) {
		s := newTestServer(t, Config{})
		defer s.Close()
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		resp, err := ts.Client().Get(ts.URL + "/debug/cache/snapshot")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET without a store: status %d, want 404", resp.StatusCode)
		}
		resp, err = ts.Client().Post(ts.URL+"/debug/cache/snapshot", "application/json", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("POST without a store: status %d, want 404", resp.StatusCode)
		}
	})

	t.Run("SnapshotCompacts", func(t *testing.T) {
		dir := t.TempDir()
		s, err := NewServer(Config{Store: StoreConfig{Dir: dir}})
		if err != nil {
			t.Fatalf("NewServer: %v", err)
		}
		defer s.Close()
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()

		if resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/map", synthReq(64)); resp.StatusCode != http.StatusOK {
			t.Fatalf("serve: status %d: %s", resp.StatusCode, body)
		}

		resp, err := ts.Client().Get(ts.URL + "/debug/cache/snapshot")
		if err != nil {
			t.Fatal(err)
		}
		var got snapshotStats
		if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || got.Dir != dir {
			t.Fatalf("GET snapshot: status %d, dir %q", resp.StatusCode, got.Dir)
		}
		if got.Compacted {
			t.Fatal("GET snapshot reported a compaction")
		}

		resp, err = ts.Client().Post(ts.URL+"/debug/cache/snapshot", "application/json", nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST snapshot: status %d", resp.StatusCode)
		}
		if !got.Compacted || got.Records < 1 || got.DeadBytes != 0 {
			t.Fatalf("POST snapshot: compacted=%v records=%d dead=%d; want a clean compacted log",
				got.Compacted, got.Records, got.DeadBytes)
		}

		// The snapshot restores through the normal startup scan.
		s.Close()
		ts.Close()
		s2, err := NewServer(Config{Store: StoreConfig{Dir: dir}})
		if err != nil {
			t.Fatalf("NewServer on snapshot: %v", err)
		}
		defer s2.Close()
		if got := s2.planLog.Stats(); got.WarmRecords < 1 || got.SkippedRecords != 0 {
			t.Fatalf("snapshot restore: warm=%d skipped=%d", got.WarmRecords, got.SkippedRecords)
		}
	})
}

// planRecordGolden is TestPlanCodecPayload's fixture as a plan-log
// payload, in the bytes the codec wrote before cachedPlan carried its own
// JSON tags (FuzzPlanWire seeds from it too).
const planRecordGolden = `{"plan":{"schema":1,"scheme":"inter-sched","clients":2,"work":[[{"runs":[[0,4],[8,12]]}],[{"explicit":[5,4,7]}]],"total_iterations":11,"iteration_chunks":3,"sync_edges":1},"stages":[{"stage":"tags","duration_ms":0.25,"alloc_bytes":4096},{"stage":"similarity","duration_ms":1.5,"pairs_generated":12,"pairs_dense":21}],"filled_from":"10.0.0.7:8700","replanned":"incremental","reused_stages":["tags","chunks"]}`

// TestPlanCodecPayload pins one fixture's disk payload to the bytes the
// codec wrote before cachedPlan carried its own JSON tags, so a log
// written by an older daemon still warm-starts this one. The resumable
// state stays out of the image, and a payload whose plan schema differs
// is rejected.
func TestPlanCodecPayload(t *testing.T) {
	const golden = planRecordGolden
	plan := mapping.Plan{
		Schema:  mapping.PlanSchemaVersion,
		Scheme:  pipeline.InterProcessorSched,
		Clients: 2,
		Work: [][]mapping.PlanBlock{
			{{Runs: [][2]int64{{0, 4}, {8, 12}}}},
			{{Explicit: []int64{5, 4, 7}}},
		},
		TotalIterations: 11,
		IterationChunks: 3,
		SyncEdges:       1,
	}
	fixture := cachedPlan{
		Plan: mustPlanJSON(t, plan),
		Stages: []pipeline.StageTiming{
			{Stage: "tags", DurationMS: 0.25, AllocBytes: 4096},
			{Stage: "similarity", DurationMS: 1.5, PairsGenerated: 12, PairsDense: 21},
		},
		FilledFrom:   "10.0.0.7:8700",
		Replanned:    "incremental",
		ReusedStages: []string{"tags", "chunks"},
		state:        &pipeline.State{},
	}
	codec := planCodec()
	b, err := codec.Encode(fixture)
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != golden {
		t.Fatalf("payload changed:\n got %s\nwant %s", b, golden)
	}
	got, err := codec.Decode([]byte(golden))
	if err != nil {
		t.Fatalf("Decode(golden): %v", err)
	}
	fixture.state = nil
	if !reflect.DeepEqual(got, fixture) {
		t.Fatalf("Decode(golden) = %+v, want %+v", got, fixture)
	}

	plan.Schema = mapping.PlanSchemaVersion + 1
	fixture.Plan = mustPlanJSON(t, plan)
	if b, err = codec.Encode(fixture); err != nil {
		t.Fatal(err)
	}
	if _, err := codec.Decode(b); err == nil {
		t.Fatal("Decode accepted a payload of another plan schema")
	}
}

// TestPlanCodecRecordForms: Decode accepts a record only if the whole
// record is valid JSON that begins with its plan, and the plan it returns
// keeps its bytes in the buffer it was given. Whitespace before the plan,
// a plan that is not the first member and a second plan member are
// rejected although json.Valid accepts them: no build writes them.
func TestPlanCodecRecordForms(t *testing.T) {
	codec := planCodec()
	g := planRecordGolden
	head, tailAt := len(`{"plan":`), strings.Index(g, `,"stages"`)
	plan, tail := g[head:tailAt], g[tailAt:]
	for name, rec := range map[string]string{
		"golden":                    g,
		"whitespace around members": `{"plan":` + plan + " \n\t\r" + tail[:1] + " " + tail[1:] + " \n",
		"plan alone":                `{"plan":` + plan + `} `,
	} {
		b := []byte(rec)
		got, err := codec.Decode(b)
		if err != nil {
			t.Errorf("%s: Decode: %v", name, err)
			continue
		}
		if string(got.Plan.raw) != plan || &got.Plan.raw[0] != &b[head] {
			t.Errorf("%s: plan is %q, not the record's own bytes", name, got.Plan.raw)
		}
		if provenance := got.Stages != nil; provenance != (name != "plan alone") {
			t.Errorf("%s: decoded stages %v", name, got.Stages)
		}
	}
	for _, c := range []struct {
		name, rec string
		valid     bool // json.Valid accepts it: a form no build writes
	}{
		{"whitespace before the plan", `{ "plan":` + plan + tail, true},
		{"whitespace before its value", `{"plan": ` + plan + tail, true},
		{"plan not the first member", `{"filled_from":"10.0.0.7:8700",` + g[1:], true},
		{"second plan member", g[:len(g)-1] + `,"plan":{}}`, true},
		{"second null plan member", g[:len(g)-1] + `,"plan":null}`, true},
		{"plan not valid JSON", `{"plan":` + plan[:len(plan)-1] + `,}` + tail, false},
		{"provenance not valid JSON", g[:len(g)-1] + `,}`, false},
		{"comma with no member", `{"plan":` + plan + `,}`, false},
		{"data after the record", g + ` x`, false},
		{"data after a lone plan", `{"plan":` + plan + `}x`, false},
		{"truncated", g[:len(g)-1], false},
		{"plan truncated", g[:tailAt-1], false},
		{"empty", "", false},
	} {
		if _, err := codec.Decode([]byte(c.rec)); err == nil {
			t.Errorf("%s: Decode accepted %s", c.name, c.rec)
		}
		if valid := json.Valid([]byte(c.rec)); valid != c.valid {
			t.Errorf("%s: json.Valid = %v, want %v", c.name, valid, c.valid)
		}
	}
}

// mustPlanJSON encodes p as the server holds a plan, failing the test on
// error.
func mustPlanJSON(t testing.TB, p mapping.Plan) *planJSON {
	t.Helper()
	raw, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	return &planJSON{raw: raw}
}

// TestDiskHitKeepsRepairAnchor: a plan served from disk carries no
// resumable state, so it must not replace the stale tier's stateful entry
// for its workload. After a disk hit on the anchor's own key, the next
// near miss still repairs incrementally instead of running the full
// pipeline.
func TestDiskHitKeepsRepairAnchor(t *testing.T) {
	s := newTestServer(t, Config{
		PlanCacheSize: 1,
		Store:         StoreConfig{Dir: t.TempDir()},
		Repair:        RepairConfig{Enabled: true},
	})
	defer s.Close()
	for _, ext := range []int64{128, 96} { // the second evicts the first from memory
		if _, err := s.ComputePlan(synthReq(ext)); err != nil {
			t.Fatal(err)
		}
	}
	s.planWB.Flush()
	if mr, err := s.ComputePlan(synthReq(128)); err != nil || !mr.Cached {
		t.Fatalf("anchor again: cached %v, err %v; want a disk hit", mr != nil && mr.Cached, err)
	}
	if hits := s.cache.Stats().DiskHits; hits != 1 {
		t.Fatalf("disk hits = %d, want 1", hits)
	}
	near := synthReq(128)
	near.Topology = "1/2/4@16,8,5"
	mr, err := s.ComputePlan(near)
	if err != nil {
		t.Fatal(err)
	}
	if mr.Replanned != ReplanIncremental {
		t.Fatalf("near miss after a disk hit: replanned %q, want %q", mr.Replanned, ReplanIncremental)
	}
	if hits, misses := s.repairHits.Value(), s.repairMisses.Value(); hits != 1 || misses != 2 {
		t.Fatalf("repair lookups: %d hits, %d misses; want 1, 2", hits, misses)
	}
	if computes := s.computes.Value(); computes != 2 {
		t.Fatalf("computes = %d, want the 2 cold specs", computes)
	}
}

// TestConcurrentPlanBytes drives in-process callers over two plans and a
// 1-plan memory tier from several goroutines at once, so disk hits, the
// stale tier's anchoring and the once-per-entry plan decode all race (run
// it under -race). Every caller must get the plan's canonical bytes.
func TestConcurrentPlanBytes(t *testing.T) {
	s := newTestServer(t, Config{
		PlanCacheSize: 1,
		Store:         StoreConfig{Dir: t.TempDir()},
		Repair:        RepairConfig{Enabled: true},
	})
	defer s.Close()
	reqs := []MapRequest{synthReq(128), synthReq(96)}
	var want [2][]byte
	for i, req := range reqs {
		mr, err := s.ComputePlan(req)
		if err != nil {
			t.Fatal(err)
		}
		want[i], _ = json.Marshal(mr.Plan)
	}
	s.planWB.Flush()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 16; i++ {
				k := (g + i) % 2
				mr, err := s.ComputePlan(reqs[k])
				if err != nil {
					t.Error(err)
					return
				}
				if got, _ := json.Marshal(mr.Plan); !bytes.Equal(got, want[k]) || !bytes.Equal(mr.raw.raw, want[k]) {
					t.Errorf("goroutine %d request %d: plan differs from the computed one", g, i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if computes := s.computes.Value(); computes != 2 {
		t.Fatalf("computes = %d, want the 2 cold specs", computes)
	}
}

// BenchmarkPlanRecordDecode splits plan-log records shaped like perfbench
// cache_hits' hot set — the 8 paper apps under inter and inter-sched on
// 16/32/64@16,8,4, 9.6 KB on average — round-robin: what a disk hit pays
// between the record's CRC check and the response splice.
func BenchmarkPlanRecordDecode(b *testing.B) {
	s := newTestServer(b, Config{})
	codec := planCodec()
	var records [][]byte
	for _, app := range workloads.Names() {
		for _, scheme := range []string{"inter", "inter-sched"} {
			mr, err := s.ComputePlan(MapRequest{Workload: WorkloadSpec{App: app}, Topology: "16/32/64@16,8,4", Scheme: scheme})
			if err != nil {
				b.Fatal(err)
			}
			rec, err := codec.Encode(cachedPlan{Plan: mr.raw, Stages: mr.Stages, Replanned: mr.Replanned})
			if err != nil {
				b.Fatal(err)
			}
			records = append(records, rec)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := codec.Decode(records[i%len(records)]); err != nil {
			b.Fatal(err)
		}
	}
}
