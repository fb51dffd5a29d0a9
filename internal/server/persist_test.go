package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"

	"repro/internal/mapping"
	"repro/internal/pipeline"
	"repro/internal/planstore"
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
