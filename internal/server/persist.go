package server

// Persistent plan store wiring: the disk tier under the plan cache's
// in-memory LRU (internal/planstore), its value codec, its metrics, and
// the GET|POST /debug/cache/snapshot endpoints. See DESIGN.md §14.

import (
	"encoding/json"
	"fmt"
	"net/http"

	"repro/internal/mapping"
	"repro/internal/pipeline"
	"repro/internal/planstore"
)

// StoreConfig configures the optional persistent plan store. The zero
// value (empty Dir) disables persistence entirely: the plan cache is the
// in-memory LRU alone, exactly as before.
type StoreConfig struct {
	// Dir is the store directory; non-empty enables the disk tier.
	Dir string
	// Fsync selects the log's durability policy (default batch).
	Fsync planstore.FsyncPolicy
}

const (
	// storeCapacity bounds live records on disk; the in-memory LRU in
	// front stays at PlanCacheSize.
	storeCapacity = 4096
	// storeQueueLen bounds the write-behind queue between the request path
	// and the disk writer; a full queue drops the disk write rather than
	// blocking the request.
	storeQueueLen = 256
)

// persistedPlan is the disk image of a cachedPlan: everything except the
// unexported resumable pipeline state, which is process-local by design —
// a warm-started plan serves byte-identically, and the repair path simply
// re-anchors on the next full compute.
type persistedPlan struct {
	Plan         mapping.Plan           `json:"plan"`
	Stages       []pipeline.StageTiming `json:"stages,omitempty"`
	FilledFrom   string                 `json:"filled_from,omitempty"`
	Replanned    string                 `json:"replanned,omitempty"`
	ReusedStages []string               `json:"reused_stages,omitempty"`
}

// planCodec maps cachedPlan to and from the log's payload bytes (JSON of
// the wire-format v1 plan plus serve provenance). Decode re-checks the
// plan schema version: the log's header schema already fences whole
// records, this guards the payload's own self-description.
func planCodec() planstore.Codec[cachedPlan] {
	return planstore.Codec[cachedPlan]{
		Encode: func(v cachedPlan) ([]byte, error) {
			return json.Marshal(persistedPlan{
				Plan:         v.Plan,
				Stages:       v.Stages,
				FilledFrom:   v.FilledFrom,
				Replanned:    v.Replanned,
				ReusedStages: v.ReusedStages,
			})
		},
		Decode: func(b []byte) (cachedPlan, error) {
			var p persistedPlan
			if err := json.Unmarshal(b, &p); err != nil {
				return cachedPlan{}, err
			}
			if p.Plan.Schema != mapping.PlanSchemaVersion {
				return cachedPlan{}, fmt.Errorf("plan schema %d, want %d", p.Plan.Schema, mapping.PlanSchemaVersion)
			}
			return cachedPlan{
				Plan:         p.Plan,
				Stages:       p.Stages,
				FilledFrom:   p.FilledFrom,
				Replanned:    p.Replanned,
				ReusedStages: p.ReusedStages,
			}, nil
		},
	}
}

// registerPlanstoreMetrics publishes the disk tier's gauges and counters.
// All are sampled lazily at scrape time from Stats(), like the admission
// and stale-tier instruments.
func (s *Server) registerPlanstoreMetrics() {
	log, wb := s.planLog, s.planWB
	s.reg.GaugeFunc("cachemapd_planstore_records",
		"live plan records in the persistent store",
		func() float64 { return float64(log.Stats().Records) })
	s.reg.GaugeFunc("cachemapd_planstore_warm_records",
		"plan records restored by this process's startup scan",
		func() float64 { return float64(log.Stats().WarmRecords) })
	s.reg.GaugeFunc("cachemapd_planstore_live_bytes",
		"bytes held by live records in the plan log",
		func() float64 { return float64(log.Stats().LiveBytes) })
	s.reg.GaugeFunc("cachemapd_planstore_dead_bytes",
		"bytes held by superseded records, tombstones and schema drops awaiting compaction",
		func() float64 { return float64(log.Stats().DeadBytes) })
	s.reg.CounterFunc("cachemapd_planstore_skipped_records_total",
		"truncated or corrupt tail records skipped by the startup scan",
		func() float64 { return float64(log.Stats().SkippedRecords) })
	s.reg.CounterFunc("cachemapd_planstore_schema_dropped_records_total",
		"well-formed records dropped by the startup scan for a plan schema version mismatch",
		func() float64 { return float64(log.Stats().SchemaDropped) })
	s.reg.CounterFunc("cachemapd_planstore_appends_total",
		"records appended to the plan log (including tombstones)",
		func() float64 { return float64(log.Stats().Appends) })
	s.reg.CounterFunc("cachemapd_planstore_evictions_total",
		"plan records evicted from the disk tier by capacity pressure",
		func() float64 { return float64(log.Stats().Evictions) })
	s.reg.CounterFunc("cachemapd_planstore_compactions_total",
		"live-record rewrites of the plan log (automatic and snapshot-forced)",
		func() float64 { return float64(log.Stats().Compactions) })
	s.reg.CounterFunc("cachemapd_planstore_read_errors_total",
		"disk-tier read failures served as cache misses",
		func() float64 { return float64(log.Stats().ReadErrors) })
	s.reg.CounterFunc("cachemapd_planstore_disk_hits_total",
		"memory-miss lookups answered by the disk tier (promoted back into the LRU)",
		func() float64 { p, _, _, _ := wb.Stats(); return float64(p) })
	s.reg.CounterFunc("cachemapd_planstore_write_queue_drops_total",
		"disk writes dropped because the write-behind queue was full",
		func() float64 { _, d, _, _ := wb.Stats(); return float64(d) })
	s.reg.GaugeFunc("cachemapd_planstore_write_queue_depth",
		"disk writes currently waiting in the write-behind queue",
		func() float64 { _, _, _, n := wb.Stats(); return float64(n) })
}

// snapshotStats is the GET /debug/cache/snapshot response body (POST adds
// Compacted).
type snapshotStats struct {
	Dir       string `json:"dir"`
	Compacted bool   `json:"compacted,omitempty"`
	planstore.Stats
}

// handleSnapshotGet reports the persistent store's state. 404 when no
// store is configured, mirroring the faults endpoints.
func (s *Server) handleSnapshotGet(w http.ResponseWriter, _ *http.Request) {
	if s.planLog == nil {
		s.writeError(w, http.StatusNotFound, fmt.Errorf("no persistent plan store configured (run with -store-dir)"))
		return
	}
	s.writeJSON(w, http.StatusOK, snapshotStats{Dir: s.planLog.Dir(), Stats: s.planLog.Stats()})
}

// handleSnapshotPost flushes the write-behind queue and force-compacts the
// log, leaving Dir/plans.log a clean, checksummed, immediately
// warm-scannable image of the store — the snapshot. Restoring one is just
// pointing a fresh daemon's -store-dir at it (or a copy of it): the normal
// startup scan is the restore path.
func (s *Server) handleSnapshotPost(w http.ResponseWriter, _ *http.Request) {
	if s.planLog == nil {
		s.writeError(w, http.StatusNotFound, fmt.Errorf("no persistent plan store configured (run with -store-dir)"))
		return
	}
	s.planWB.Flush()
	if err := s.planLog.Compact(); err != nil {
		s.writeError(w, http.StatusInternalServerError, fmt.Errorf("compacting plan log: %w", err))
		return
	}
	s.writeJSON(w, http.StatusOK, snapshotStats{Dir: s.planLog.Dir(), Compacted: true, Stats: s.planLog.Stats()})
}
