package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

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
