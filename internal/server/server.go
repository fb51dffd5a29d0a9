// Package server turns the mapper into a long-running service: a stdlib
// net/http JSON API that computes hierarchy-aware mappings on demand,
// memoizes them in a content-addressed plan cache, runs the I/O simulator
// against computed plans, and exposes its own operational metrics.
//
// Endpoints:
//
//	POST /v1/map            compute (or fetch) the plan for a workload+topology+scheme spec
//	POST /v1/simulate       run the iosim against the plan and report per-level miss rates
//	POST /internal/plan/{key} peer-fill protocol between ring members (see cluster.go)
//	GET  /healthz           liveness + admission-queue and ring health, as JSON
//	GET  /metrics           Prometheus text exposition
//	GET  /debug/events      wide per-request events as JSON (?family=, ?mode=, ?min_ms=, ?limit=)
//	GET  /debug/traces      the same requests' traces as JSON (same filters)
//	GET  /debug/traces/{id} one trace in Chrome trace_event format (chrome://tracing, Perfetto)
//
// Observability: every API request runs under a root span (ingesting a
// W3C `traceparent` header when present, minting a trace ID otherwise)
// whose ID is echoed in the `X-Trace-Id` response header; the plan cache,
// pipeline stages and simulator record child spans. The completed trace
// rides the request's wide event into one bounded ring (see events.go),
// which serves both /debug/events and /debug/traces. When a Logger is
// configured, every request is access-logged, and requests slower than
// SlowRequestThreshold additionally log their per-span breakdown.
//
// Concurrency model: decoding and validation run on the connection's
// goroutine; the mapping computation itself is admitted through a bounded
// worker pool so that a burst of expensive clustering jobs cannot
// oversubscribe the machine. Every request carries a deadline; requests
// that cannot be admitted before it expires fail fast with 503, admitted
// jobs that overrun it return 504 and the pipeline observes the canceled
// context cooperatively, stopping the computation within one stage
// boundary or check interval — no worker goroutine outlives its request.
//
// Overload hardening: in front of the worker pool sits a bounded
// admission queue (depth and summed-cost limits; cost ≈ iteration count ×
// topology size). Requests the queue cannot hold are shed immediately
// with 429 and a Retry-After hint — a shed request never blocks and never
// touches a worker. With degraded serving enabled, overload-path failures
// (shed, admission timeout, deadline overrun, injected fault) are instead
// answered with a stale-but-valid plan from the plan cache's stale tier
// (same workload, topology drift within tolerance) or the cheap
// lexicographic fallback mapping, the degradation mode marked in the
// response, the request span, and cachemapd_degraded_responses_total. A
// faults.Injector (see -faults / GET+POST /debug/faults) deterministically
// injects latency spikes, pipeline-stage errors and plan-cache leader
// crashes to prove those paths under chaos load.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/iosim"
	"repro/internal/mapping"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/plancache"
	"repro/internal/planstore"
	"repro/internal/quality"
)

// Config parameterizes the service.
type Config struct {
	// Workers bounds concurrently executing mapping/simulation jobs
	// (default: GOMAXPROCS).
	Workers int
	// PlanCacheSize bounds the plan cache, in plans (default 512).
	PlanCacheSize int
	// RequestTimeout is the per-request deadline, covering both queueing
	// and computation (default 30s).
	RequestTimeout time.Duration
	// Registry receives the server's instruments (default: a fresh one).
	Registry *metrics.Registry
	// Logger receives the structured access log (nil: no access logging).
	Logger *slog.Logger
	// SlowRequestThreshold: requests at least this slow are logged at Warn
	// with their span breakdown (0 disables the slow-request log).
	SlowRequestThreshold time.Duration
	// AdmissionQueueDepth bounds requests waiting for a worker slot;
	// arrivals beyond it are shed with 429 + Retry-After (default 64;
	// negative sheds whenever no worker is immediately free).
	AdmissionQueueDepth int
	// AdmissionQueueCost bounds the summed cost estimate (iteration count
	// × topology size) of queued requests (0 = unbounded). An empty queue
	// always accepts one waiter regardless of cost.
	AdmissionQueueCost int64
	// Degraded turns on graceful degradation under overload: instead of
	// failing a request that was shed at admission, timed out, or hit an
	// injected fault, the server answers with a stale-but-valid or
	// deliberately cheap plan, marked as such (see degraded.go).
	Degraded bool
	// Repair configures transparent incremental re-planning on POST
	// /v1/map: a request whose workload matches a cached clustering and
	// whose topology drifts within tolerance re-enters the pipeline at the
	// balance stage instead of recomputing from tags. POST /v1/map/batch
	// repairs siblings onto their family leader's clustering regardless of
	// this switch.
	Repair RepairConfig
	// Faults, when non-nil, deterministically injects latency spikes,
	// pipeline-stage errors and plan-cache leader crashes (see
	// internal/faults) and enables GET/POST /debug/faults.
	Faults *faults.Injector
	// Cluster, when non-nil, makes this server one member of a
	// consistent-hash ring of cachemapd processes: local plan-cache misses
	// first ask the key's owner over the internal fill protocol before
	// computing (see cluster.go).
	Cluster *cluster.Node
	// EventBufferSize bounds the one per-request ring: the wide events and
	// their traces served by /debug/events and /debug/traces (default
	// 256; negative disables both the ring and tracing — events still flow
	// to the access log).
	EventBufferSize int
	// LogSampleRate is the sampled fraction of 200-OK fast-path access-log
	// lines (default 1: log every request; negative: none). Errors,
	// degraded responses and slow requests always log, whatever the rate.
	LogSampleRate float64
	// Store configures the persistent plan store (see persist.go): with a
	// non-empty Store.Dir the plan cache grows a disk-backed second tier —
	// reads hit the in-memory LRU first, a miss consults the append-only
	// plan log before the ring/pipeline, and writes are persisted behind a
	// bounded write-behind queue. A restarted server warm-scans the log
	// and serves previously computed plans as hits.
	Store StoreConfig
	// QualitySampleRate is the fraction of /v1/map responses shadow-
	// simulated off the request path into the per-family quality ledger
	// behind GET /debug/quality (see internal/quality; 0 disables).
	QualitySampleRate float64
}

// maxBodyBytes bounds request bodies: an input-safety limit, not a knob.
const maxBodyBytes = 1 << 20

// logSampleSeed and qualitySampleSeed seed the deterministic access-log
// and shadow-simulation sampling draws.
const (
	logSampleSeed     = 1
	qualitySampleSeed = 1
)

func (c *Config) applyDefaults() {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.PlanCacheSize <= 0 {
		c.PlanCacheSize = 512
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.Registry == nil {
		c.Registry = metrics.NewRegistry()
	}
	if c.AdmissionQueueDepth == 0 {
		c.AdmissionQueueDepth = 64
	}
	if c.AdmissionQueueDepth < 0 {
		c.AdmissionQueueDepth = 0
	}
	if c.EventBufferSize == 0 {
		c.EventBufferSize = 256
	}
	if c.LogSampleRate == 0 {
		c.LogSampleRate = 1
	}
	c.Repair.applyDefaults()
}

// RepairConfig controls the incremental re-planning fast-path.
type RepairConfig struct {
	// Enabled turns the transparent repair path on for POST /v1/map and
	// /v1/simulate. Default off: under drift a repaired plan is a valid
	// approximation, not the plan a full compute would produce, so
	// byte-exact serving paths (e.g. ring members proving plan
	// byte-equality) must opt in deliberately.
	Enabled bool
	// Tolerance is the relative per-layer topology drift under which a
	// cached clustering is repaired instead of recomputed (default 0.25,
	// matching staleTolerance; see plancache.TopoSig).
	Tolerance float64
}

func (c *RepairConfig) applyDefaults() {
	if c.Tolerance <= 0 {
		c.Tolerance = 0.25
	}
}

// Replan outcomes recorded in responses and
// cachemapd_replan_total{outcome}.
const (
	// ReplanFull marks a plan computed by the full pipeline.
	ReplanFull = "full"
	// ReplanIncremental marks a plan repaired from a cached clustering:
	// only balance/schedule/encode ran; tags through cluster were reused.
	ReplanIncremental = "incremental"
	// ReplanStaleServed marks a degraded response that served a stale plan
	// unmodified (no pipeline stage ran at all).
	ReplanStaleServed = "stale_served"
)

// Server is the mapping-as-a-service daemon core. Create with NewServer;
// it is safe for concurrent use.
type Server struct {
	cfg     Config
	reg     *metrics.Registry
	cache   *plancache.Cache[cachedPlan]
	stale   *plancache.StaleTier[staleValue]
	staleMu sync.Mutex // serializes anchorStale's check and put
	sem     chan struct{}
	adm     admission
	jobs    jobClock
	faults  *faults.Injector
	cluster *cluster.Node
	sampler *quality.Sampler
	events  *EventLog                          // nil with the ring (and tracing) disabled
	planLog *planstore.Log[cachedPlan]         // nil without -store-dir
	planWB  *planstore.WriteBehind[cachedPlan] // nil without -store-dir
	logN    atomic.Uint64                      // access-log sampling arrival counter

	reqTotal      *metrics.Counter
	reqMap        *metrics.Counter
	reqSimulate   *metrics.Counter
	reqErrors     *metrics.Counter
	inFlight      *metrics.Gauge
	slowRequests  *metrics.Counter
	simPairsGen   *metrics.Counter
	simPairsDense *metrics.Counter
	admShed       *metrics.Counter
	computes      *metrics.Counter
	reqInternal   *metrics.Counter
	reqBatch      *metrics.Counter
	batchSpecs    *metrics.Counter
	replans       *metrics.CounterVec
	stageRuns     *metrics.CounterVec
	degraded      *metrics.CounterVec
	faultsFired   *metrics.CounterVec
	clusterDur    *metrics.Histogram
	reqDur        *metrics.Histogram
	stageDur      *metrics.HistogramVec
	missRate      *metrics.GaugeVec
	staleHits     *metrics.Counter
	staleMisses   *metrics.Counter
	repairHits    *metrics.Counter
	repairMisses  *metrics.Counter
	fillRejects   *metrics.Counter
	panics        *metrics.CounterVec

	// onJobStart, when non-nil, runs at the start of every admitted
	// mapping job (test synchronization hook).
	onJobStart func()
}

// NewServer builds a Server from the configuration. The only fallible
// step is opening the persistent plan store (Store.Dir non-empty): its
// startup scan tolerates torn and corrupt logs by design, so an error
// here means the directory itself is unusable.
func NewServer(cfg Config) (*Server, error) {
	cfg.applyDefaults()
	s := &Server{
		cfg:     cfg,
		reg:     cfg.Registry,
		stale:   plancache.NewStaleTier[staleValue](staleTierSize),
		sem:     make(chan struct{}, cfg.Workers),
		adm:     admission{depth: cfg.AdmissionQueueDepth, maxCost: cfg.AdmissionQueueCost},
		faults:  cfg.Faults,
		cluster: cfg.Cluster,
	}
	var disk plancache.Disk[cachedPlan]
	if cfg.Store.Dir != "" {
		log, err := planstore.Open[cachedPlan](planstore.Options{
			Dir:      cfg.Store.Dir,
			Capacity: storeCapacity,
			Schema:   uint32(mapping.PlanSchemaVersion),
			Fsync:    cfg.Store.Fsync,
		}, planCodec())
		if err != nil {
			return nil, fmt.Errorf("opening plan store: %w", err)
		}
		s.planLog = log
		s.planWB = planstore.NewWriteBehind(log, storeQueueLen, s.backgroundPanic("planstore"))
		disk = s.planWB
		s.registerPlanstoreMetrics()
	}
	s.cache = plancache.New(cfg.PlanCacheSize, disk)
	s.reqTotal = s.reg.Counter("cachemapd_requests_total", "API requests received")
	s.reqMap = s.reg.Counter("cachemapd_map_requests_total", "POST /v1/map requests received")
	s.reqSimulate = s.reg.Counter("cachemapd_simulate_requests_total", "POST /v1/simulate requests received")
	s.reqErrors = s.reg.Counter("cachemapd_request_errors_total", "API requests answered with a non-2xx status")
	s.inFlight = s.reg.Gauge("cachemapd_in_flight_requests", "API requests currently being served")
	s.reg.CountFunc("cachemapd_plan_cache_hits_total", "plan cache hits (incl. shared in-flight computations)",
		func() int64 { return s.cache.Stats().Hits })
	s.reg.CountFunc("cachemapd_plan_cache_misses_total", "plan cache misses (cold plans computed)",
		func() int64 { return s.cache.Stats().Misses })
	s.clusterDur = s.reg.Histogram("cachemapd_clustering_duration_seconds",
		"wall time of cold mapping computations (hierarchical clustering)", metrics.DefaultLatencyBuckets())
	s.reqDur = s.reg.Histogram("cachemapd_request_duration_seconds",
		"end-to-end request latency", metrics.DefaultLatencyBuckets())
	s.stageDur = s.reg.HistogramVec("cachemapd_stage_duration_seconds",
		"wall time per pipeline stage of cold mapping computations", "stage", metrics.DefaultLatencyBuckets())
	s.reg.CountFunc("cachemapd_plan_cache_evictions_total",
		"plans evicted from the plan cache by capacity pressure",
		func() int64 { return s.cache.Stats().Evictions })
	s.reg.CountFunc("cachemapd_plan_cache_coalesced_waiters_total",
		"requests that waited on another request's in-flight computation (singleflight)",
		func() int64 { return s.cache.Stats().Coalesced })
	s.reg.CountFunc("cachemapd_plan_cache_leader_reelections_total",
		"singleflight waiters that re-elected a leader after a canceled one",
		func() int64 { return s.cache.Stats().Reelected })
	s.slowRequests = s.reg.Counter("cachemapd_slow_requests_total",
		"requests slower than the configured slow-request threshold")
	s.simPairsGen = s.reg.Counter("cachemapd_similarity_pairs_generated",
		"similarity pairs materialized by the sparse inverted-index engine (tag overlap, weight >= 1)")
	s.simPairsDense = s.reg.Counter("cachemapd_similarity_pairs_dense_bound",
		"similarity pairs the dense n(n-1)/2 enumeration would have generated for the same workloads")
	s.admShed = s.reg.Counter("cachemapd_admission_shed_total",
		"requests shed with 429 because the admission queue was saturated")
	s.computes = s.reg.Counter("cachemapd_pipeline_computes_total",
		"cold mapping pipeline computations run on this node (under cross-node singleflight the fleet-wide sum is one per plan key)")
	s.reqInternal = s.reg.Counter("cachemapd_internal_plan_requests_total",
		"peer-fill requests received on POST /internal/plan/{key}")
	s.reqBatch = s.reg.Counter("cachemapd_batch_requests_total",
		"POST /v1/map/batch requests received")
	s.batchSpecs = s.reg.Counter("cachemapd_batch_specs_total",
		"mapping specs carried by batch requests")
	s.replans = s.reg.CounterVec("cachemapd_replan_total",
		"plan productions by outcome: full pipeline, incremental repair of a cached clustering, or a stale plan served unmodified under degradation", "outcome")
	s.stageRuns = s.reg.CounterVec("cachemapd_pipeline_stage_runs_total",
		"pipeline stage executions by stage (an incremental repair re-runs only balance/schedule/encode)", "stage")
	s.degraded = s.reg.CounterVec("cachemapd_degraded_responses_total",
		"degraded responses served under overload, by degradation mode", "mode")
	s.faultsFired = s.reg.CounterVec("cachemapd_faults_injected_total",
		"faults injected by the chaos harness, by site", "site")
	s.reg.GaugeFunc("cachemapd_admission_queue_depth",
		"requests currently waiting in the admission queue for a worker slot",
		func() float64 { q, _ := s.adm.snapshot(); return float64(q) })
	s.reg.GaugeFunc("cachemapd_admission_queue_cost",
		"summed cost estimate (iterations x topology size) of queued requests",
		func() float64 { _, c := s.adm.snapshot(); return float64(c) })
	s.reg.GaugeFunc("cachemapd_admission_queue_limit",
		"configured admission queue depth bound",
		func() float64 { return float64(s.adm.depth) })
	s.staleHits = s.reg.Counter("cachemapd_stale_tier_hits_total",
		"degraded lookups answered by the stale plan tier")
	s.staleMisses = s.reg.Counter("cachemapd_stale_tier_misses_total",
		"degraded lookups the stale plan tier could not answer (missing workload or topology drift beyond tolerance)")
	s.repairHits = s.reg.Counter("cachemapd_repair_lookup_hits_total",
		"repair lookups answered by the stale tier with a resumable clustering within tolerance")
	s.repairMisses = s.reg.Counter("cachemapd_repair_lookup_misses_total",
		"repair lookups the stale tier could not answer")
	s.fillRejects = s.reg.Counter("cachemapd_fill_rejects_total",
		"peer-fill answers rejected by the fill check (undecodable, wrong key, schema, client count or iteration coverage); each fell back to local compute")
	s.panics = s.reg.CounterVec("cachemapd_panics_total",
		"handler panics recovered and answered with 500, by site (the request's route)", "site")
	if cfg.EventBufferSize > 0 {
		s.events = NewEventLog(cfg.EventBufferSize)
	}
	s.missRate = s.reg.GaugeVec("cachemapd_plan_quality_missrate",
		"shadow-simulated miss rate of the most recently sampled served plan, by paper cache level (L1 = client caches) and serve mode",
		"level", "mode")
	s.sampler = quality.NewSampler(quality.Config{
		Rate:     cfg.QualitySampleRate,
		Seed:     qualitySampleSeed,
		OnRecord: s.onQualityRecord,
	}, s.backgroundPanic("quality"))
	s.reg.CountFunc("cachemapd_quality_sampled_total",
		"served responses enqueued for shadow simulation",
		func() int64 { return int64(s.sampler.Counts().Sampled) })
	s.reg.CountFunc("cachemapd_quality_skipped_total",
		"served responses that failed the deterministic sampling draw",
		func() int64 { return int64(s.sampler.Counts().Skipped) })
	s.reg.CountFunc("cachemapd_quality_overflow_total",
		"drawn samples shed because the shadow-simulation queue was full",
		func() int64 { return int64(s.sampler.Counts().Overflow) })
	registerRuntimeMetrics(s.reg)
	return s, nil
}

// Close releases the server's background resources: it stops the
// shadow-simulation sampler worker, then drains the write-behind queue
// and closes the plan log (when a persistent store is configured).
// In-flight HTTP requests are the http.Server's to drain, not Close's.
func (s *Server) Close() {
	s.sampler.Close()
	if s.planWB != nil {
		s.planWB.Close()
	}
}

// backgroundPanic returns the report of a panic that a long-lived
// goroutine recovered, the quality sampler's or the plan store writer's:
// it counts the panic under site and logs its value and stack. It reads
// s.panics only when called, after NewServer has returned.
func (s *Server) backgroundPanic(site string) func(p any, stack []byte) {
	return func(p any, stack []byte) {
		s.panics.Inc(site)
		if s.cfg.Logger != nil {
			s.cfg.Logger.Error("background panic", "site", site, "panic", fmt.Sprint(p), "stack", string(stack))
		}
	}
}

// onQualityRecord runs on the sampler worker for every completed shadow
// simulation: it publishes the per-level miss-rate gauges and backfills
// the originating request's wide event with the verdict.
func (s *Server) onQualityRecord(rec quality.Record) {
	if rec.Err == "" {
		for k, v := range rec.MissRates {
			s.missRate.Set(v, fmt.Sprintf("L%d", k+1), rec.Mode)
		}
	}
	if s.events != nil {
		s.events.AttachQuality(rec.TraceID, rec)
	}
}

// Registry returns the server's metrics registry.
func (s *Server) Registry() *metrics.Registry { return s.reg }

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/map", s.handleMap)
	mux.HandleFunc("POST /v1/map/batch", s.handleBatch)
	mux.HandleFunc("POST /v1/simulate", s.handleSimulate)
	mux.HandleFunc("POST /internal/plan/{key}", s.handleInternalPlan)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /debug/traces", s.handleTraces)
	mux.HandleFunc("GET /debug/traces/{id}", s.handleTraceByID)
	mux.HandleFunc("GET /debug/events", s.handleEvents)
	mux.HandleFunc("GET /debug/quality", s.handleQuality)
	mux.HandleFunc("GET /debug/faults", s.handleFaultsGet)
	mux.HandleFunc("POST /debug/faults", s.handleFaultsSet)
	mux.HandleFunc("GET /debug/cache/snapshot", s.handleSnapshotGet)
	mux.HandleFunc("POST /debug/cache/snapshot", s.handleSnapshotPost)
	return mux
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.reg.WritePrometheus(w)
}

// planKeySpec is what a plan's content address covers: the wire schema
// version plus the normalized request. Bumping PlanSchemaVersion therefore
// also invalidates cached plans of the old shape.
type planKeySpec struct {
	Schema  int        `json:"schema"`
	Request MapRequest `json:"request"`
}

// cachedPlan is the plan cache's value: the plan as its canonical JSON
// (see wire.go) plus the stage breakdown of the computation that produced
// it. A cache hit returns the original breakdown, so callers can always
// see what the plan cost. FilledFrom records the ring peer that supplied
// the plan, when it was peer-filled rather than computed here; the
// provenance sticks for as long as the entry lives. The exported fields
// are the plan-log record (see planCodec).
type cachedPlan struct {
	Plan       *planJSON              `json:"plan"`
	Stages     []pipeline.StageTiming `json:"stages,omitempty"`
	FilledFrom string                 `json:"filled_from,omitempty"`
	// Replanned records how the plan was produced (ReplanFull or
	// ReplanIncremental; empty for peer-filled plans, whose production ran
	// on the owner) and ReusedStages which pipeline stages an incremental
	// repair reused from the cached clustering. Like FilledFrom, the
	// provenance sticks for as long as the entry lives.
	Replanned    string   `json:"replanned,omitempty"`
	ReusedStages []string `json:"reused_stages,omitempty"`
	// state is the resumable mid-pipeline artifact of a full compute (nil
	// for repaired, peer-filled and disk-read plans and for non-resumable
	// schemes/modes); it rides into the stale tier so later near-miss
	// requests can repair it. Being unexported, it stays out of the disk
	// image.
	state *pipeline.State
}

// computeOpts tunes one computePlan resolution.
type computeOpts struct {
	// internal marks requests arriving over the peer-fill protocol: the
	// owner serves them locally and never re-forwards or repairs.
	internal bool
	// repair allows answering a cache miss by incrementally re-planning a
	// cached clustering of the same workload (topology drift within the
	// repair tolerance) instead of running the full pipeline.
	repair bool
}

// computePlan resolves a validated job through the plan cache, computing
// the mapping on a miss, and returns the request's response: the plan and
// its provenance, with ElapsedMS measured from start. The computation runs
// under ctx and stops
// cooperatively when it is canceled; a canceled leader never poisons the
// cache (see plancache.Do). Successful plans are also recorded in the
// stale tier under the job's workload-only key, feeding degraded serving
// — including peer-filled plans, so a fill replicates the stale entry
// onto this node.
//
// When clustered and the key belongs to another ring member, the local
// miss first asks the owner over the fill protocol; the fetch runs
// inside the local singleflight leader, and the owner's own singleflight
// makes its compute the fleet-wide one. Any fill failure falls back to
// computing here. internal marks requests arriving over that protocol:
// the owner serves them from its cache or pipeline but never re-forwards,
// so skewed ring views cannot create forwarding loops.
//
// With a fault injector armed, the computation passes the injector's
// pipeline sites through a stage hook, and the plancache/leader site can
// crash the leader: the leader cancels its own Do context and abandons
// the key, waiting followers re-elect a successor (the production crash
// path), and the crashed request itself reports an *faults.InjectedError.
func (s *Server) computePlan(ctx context.Context, j *job, opt computeOpts, start time.Time) (*MapResponse, error) {
	key, err := PlanKey(j.req)
	if err != nil {
		return nil, err
	}
	dctx := ctx
	var crash context.CancelFunc
	if s.faults != nil {
		dctx, crash = context.WithCancel(ctx)
		defer crash()
	}
	v, hit, err := s.cache.Do(dctx, key, func(cctx context.Context) (cachedPlan, error) {
		if crash != nil {
			if d := s.faults.Evaluate("plancache/leader"); d.Crash {
				s.faultsFired.Inc("plancache/leader")
				crash()
				return cachedPlan{}, &faults.InjectedError{Site: "plancache/leader"}
			}
		}
		if s.onJobStart != nil {
			s.onJobStart()
		}
		// Repair before peer fill: an in-memory clustering of our own is
		// cheaper than a network round trip, and a fill would make the
		// owner run the full pipeline on a cold fleet anyway.
		if opt.repair && !opt.internal {
			if cp, ok := s.tryRepair(cctx, j); ok {
				return cp, nil
			}
		}
		if s.cluster != nil && !opt.internal {
			if owner, self := s.cluster.Owner(key); !self {
				if cp, ok := s.peerFill(cctx, owner, key, j); ok {
					return cp, nil
				}
				// Owner down, slow or overloaded: compute locally below.
			}
		}
		cfg := j.cfg
		if s.faults != nil {
			cfg.StageHook = s.stageHook
		}
		s.computes.Inc()
		s.replans.Inc(ReplanFull)
		start := time.Now()
		res, err := pipeline.Map(cctx, j.scheme, j.work.Prog, cfg)
		if err != nil {
			return cachedPlan{}, err
		}
		s.clusterDur.Observe(time.Since(start).Seconds())
		s.observeStages(res.Stages)
		return cachedPlan{
			Plan:      newPlanJSON(res),
			Stages:    res.Stages,
			Replanned: ReplanFull,
			state:     res.State(),
		}, nil
	})
	if err != nil && ctx.Err() == nil && dctx.Err() != nil {
		// The injected leader crash canceled dctx, not the caller: surface
		// it as the injected fault it is, not as a cancellation.
		err = &faults.InjectedError{Site: "plancache/leader"}
	}
	if err != nil {
		return nil, err
	}
	if v.Replanned != ReplanIncremental {
		s.anchorStale(j, v, key)
	}
	return &MapResponse{
		raw:          v.Plan,
		Stages:       v.Stages,
		CacheKey:     key.String(),
		Cached:       hit,
		FilledFrom:   v.FilledFrom,
		Replanned:    v.Replanned,
		ReusedStages: v.ReusedStages,
		ElapsedMS:    msSince(start),
	}, nil
}

// anchorStale records a served plan in the stale tier under its workload.
// Only full computes, peer fills and disk reads anchor: a repaired plan
// derives from the entry it was repaired from, and letting it overwrite
// that entry would re-base the drift comparison on each repair — a random
// walk where A→B→C each stays within tolerance of its predecessor while C
// drifts arbitrarily far from the clustering that was actually computed.
// Keeping the ancestor makes every repair measure drift against the last
// full pipeline run. For the same reason a plan without resumable state
// (peer-filled or read from disk) never replaces an entry that has one:
// degraded serving can use either, but only the stateful one can repair.
// The check sees entries of the same topology depth, the only ones a
// request of this depth could repair from.
func (s *Server) anchorStale(j *job, v cachedPlan, key plancache.Key) {
	s.staleMu.Lock()
	defer s.staleMu.Unlock()
	if v.state == nil {
		if old, _, _, ok := s.stale.Get(j.wkKey, j.topoSig, math.Inf(1)); ok && old.plan.state != nil {
			return
		}
	}
	s.stale.Put(j.wkKey, j.topoSig, staleValue{plan: v, key: key})
}

// msSince returns the milliseconds elapsed since start.
func msSince(start time.Time) float64 {
	return float64(time.Since(start)) / float64(time.Millisecond)
}

// observeStages records a pipeline run's per-stage durations, run counts
// and similarity pair statistics on the server's instruments.
func (s *Server) observeStages(sts []pipeline.StageTiming) {
	for _, st := range sts {
		s.stageRuns.Inc(st.Stage)
		s.stageDur.Observe(st.Stage, st.DurationMS/1e3)
		if st.Stage == pipeline.StageSimilarity {
			s.simPairsGen.Add(st.PairsGenerated)
			s.simPairsDense.Add(st.PairsDense)
		}
	}
}

// tryRepair attempts incremental re-planning: when the stale tier holds a
// resumable clustering for the same workload whose topology drifts from
// the requested one within the repair tolerance, the pipeline re-enters at
// the balance stage (pipeline.Resume) instead of recomputing from tags.
// Zero drift reproduces the full compute's plan byte for byte; under drift
// the repaired plan is valid for the new topology while preserving the
// cached clustering's locality. Any failure falls through to the full
// pipeline.
func (s *Server) tryRepair(ctx context.Context, j *job) (cachedPlan, bool) {
	if j.cfg.DepMode != pipeline.DepIgnore {
		return cachedPlan{}, false // dependence modes need tags/chunks artifacts
	}
	if j.scheme != pipeline.InterProcessor && j.scheme != pipeline.InterProcessorSched {
		return cachedPlan{}, false
	}
	// A hit needs a resumable clustering: disk-restored and peer-filled
	// plans carry no state, so their lookups count as misses.
	v, _, _, ok := s.stale.Get(j.wkKey, j.topoSig, s.cfg.Repair.Tolerance)
	if !ok || v.plan.state == nil || v.plan.state.Scheme != j.scheme {
		s.repairMisses.Inc()
		return cachedPlan{}, false
	}
	s.repairHits.Inc()
	cfg := j.cfg
	if s.faults != nil {
		cfg.StageHook = s.stageHook
	}
	res, err := pipeline.Resume(ctx, v.plan.state, cfg)
	if err != nil {
		return cachedPlan{}, false
	}
	s.replans.Inc(ReplanIncremental)
	s.observeStages(res.Stages)
	// No state: a repaired plan never anchors the stale tier (see
	// anchorStale), so nothing would ever read it.
	return cachedPlan{
		Plan:         newPlanJSON(res),
		Stages:       res.Stages,
		Replanned:    ReplanIncremental,
		ReusedStages: pipeline.ReusedStages(),
	}, true
}

// stageHook adapts the fault injector to the pipeline: each stage start
// evaluates the injector's pipeline/<stage> site, applying latency spikes
// and injected errors.
func (s *Server) stageHook(ctx context.Context, stage string) error {
	d := s.faults.Evaluate("pipeline/" + stage)
	if d.Fired() {
		s.faultsFired.Inc("pipeline/" + stage)
	}
	if d.Delay > 0 {
		if err := faults.Sleep(ctx, d.Delay); err != nil {
			return err
		}
	}
	return d.Err
}

// ComputePlan runs a mapping request in process (no HTTP), through the
// same validation, worker pool accounting and plan cache as the API. The
// response's Plan is decoded from the cache entry's bytes at most once per
// entry.
func (s *Server) ComputePlan(req MapRequest) (*MapResponse, error) {
	j, err := buildJob(req)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	s.sem <- struct{}{}
	defer func() { <-s.sem }()
	mr, err := s.computePlan(context.Background(), j, computeOpts{repair: s.cfg.Repair.Enabled}, start)
	if err != nil {
		return nil, err
	}
	if mr.Plan, err = mr.raw.decode(); err != nil {
		return nil, err
	}
	return mr, nil
}

// runJob executes fn on a pooled worker slot under the request deadline.
//
// Admission: a free worker slot is taken immediately; otherwise the
// request must first reserve a spot in the bounded admission queue —
// saturation (by depth or summed cost) sheds it at once with a *shedError
// (429 + Retry-After upstream), so a shed request never blocks and never
// consumes a worker. A queued request that cannot reach a worker before
// its deadline gives up with errBusy, still without having run.
//
// fn observes ctx and returns cooperatively when it expires (the pipeline
// checks between stages and inside its long loops), so a timed-out request
// frees its worker instead of leaking a detached goroutine that keeps
// computing after the 504 went out.
func runJob[T any](s *Server, ctx context.Context, cost int64, fn func(ctx context.Context) (T, error)) (T, error) {
	var zero T
	if s.faults != nil {
		d := s.faults.Evaluate("server/admit")
		if d.Fired() {
			s.faultsFired.Inc("server/admit")
		}
		if d.Delay > 0 {
			if err := faults.Sleep(ctx, d.Delay); err != nil {
				return zero, errDeadline
			}
		}
		if d.Err != nil {
			return zero, d.Err
		}
	}
	arrived := time.Now()
	select {
	case s.sem <- struct{}{}:
	default:
		if !s.adm.tryEnqueue(cost) {
			s.admShed.Inc()
			return zero, &shedError{retryAfter: s.retryAfter()}
		}
		select {
		case s.sem <- struct{}{}:
			s.adm.dequeue(cost)
		case <-ctx.Done():
			s.adm.dequeue(cost)
			return zero, errBusy
		}
	}
	defer func() { <-s.sem }()
	if ev := eventFrom(ctx); ev != nil {
		ev.AdmissionWaitMS = msSince(arrived)
	}
	start := time.Now()
	v, err := fn(ctx)
	s.jobs.observe(time.Since(start))
	if err != nil && ctx.Err() != nil {
		return zero, errDeadline
	}
	return v, err
}

var (
	errBusy     = errors.New("server busy: no worker available before the request deadline")
	errDeadline = errors.New("request deadline exceeded")
)

func (s *Server) handleMap(w http.ResponseWriter, r *http.Request) {
	s.reqMap.Inc()
	s.serve(w, r, func(ctx context.Context, body []byte) (any, error) {
		var req MapRequest
		if err := decodeStrict(body, &req); err != nil {
			return nil, badRequest(err)
		}
		j, err := buildJob(req)
		if err != nil {
			return nil, badRequest(err)
		}
		start := time.Now()
		resp, err := runJob(s, ctx, j.cost, func(ctx context.Context) (*MapResponse, error) {
			return s.computePlan(ctx, j, computeOpts{repair: s.cfg.Repair.Enabled}, start)
		})
		if err != nil {
			var ok bool
			if resp, ok = s.tryDegrade(ctx, j, err, start); !ok {
				return nil, err
			}
		}
		s.annotateMap(ctx, j, resp)
		return resp, nil
	})
}

// serveMode classifies how a map response's plan reached the client, for
// the quality ledger and the wide event (see quality.Modes).
func serveMode(resp *MapResponse) string {
	switch {
	case resp.Degraded == DegradedStale:
		return quality.ModeDegradedStale
	case resp.Degraded == DegradedFallback:
		return quality.ModeDegradedFallback
	case resp.Cached:
		return quality.ModeCached
	case resp.Replanned == ReplanIncremental:
		return quality.ModeIncremental
	default:
		return quality.ModeFull
	}
}

// annotateMap fills the request's wide event from a successful (possibly
// degraded) map response and stages the served plan for shadow-simulation
// sampling. The sample only references the plan's bytes — decoding and
// simulating happen on the sampler worker, never here.
func (s *Server) annotateMap(ctx context.Context, j *job, resp *MapResponse) {
	ev := eventFrom(ctx)
	if ev == nil {
		return
	}
	mode := serveMode(resp)
	ev.Family = j.family
	ev.Mode = mode
	ev.CacheKey = resp.CacheKey
	ev.ReusedStages = resp.ReusedStages
	ev.DegradedCause = resp.DegradedCause
	if len(resp.Stages) > 0 {
		ev.StageMS = make(map[string]float64, len(resp.Stages))
		for _, st := range resp.Stages {
			ev.StageMS[st.Stage] = st.DurationMS
		}
	}
	if !s.sampler.Active() {
		return
	}
	ev.sample = &quality.Sample{
		TraceID: ev.TraceID,
		Family:  j.family,
		Mode:    mode,
		Tree:    j.tree,
		Prog:    j.work.Prog,
		Plan:    resp.raw.raw,
		Params:  iosim.DefaultParams(),
	}
}

func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	s.reqSimulate.Inc()
	s.serve(w, r, func(ctx context.Context, body []byte) (any, error) {
		var req SimRequest
		if err := decodeStrict(body, &req); err != nil {
			return nil, badRequest(err)
		}
		j, err := buildJob(req.MapRequest)
		if err != nil {
			return nil, badRequest(err)
		}
		params, err := req.simParams()
		if err != nil {
			return nil, badRequest(err)
		}
		start := time.Now()
		return runJob(s, ctx, j.cost, func(ctx context.Context) (any, error) {
			mr, err := s.computePlan(ctx, j, computeOpts{repair: s.cfg.Repair.Enabled}, start)
			if err != nil {
				return nil, err
			}
			plan, err := mr.raw.decode()
			if err != nil {
				return nil, err
			}
			asg, err := plan.Assignment()
			if err != nil {
				return nil, err
			}
			m, err := iosim.RunCtx(ctx, j.tree, j.work.Prog, asg, params)
			if err != nil {
				return nil, err
			}
			resp := &SimResponse{
				Scheme:      string(j.scheme),
				IOLatencyMS: m.IOLatencyMS(),
				ExecTimeMS:  m.ExecTimeMS(),
				DiskReads:   m.DiskReads,
				Writebacks:  m.DiskWritebacks,
				Iterations:  m.Iterations,
				CacheKey:    mr.CacheKey,
				Cached:      mr.Cached,
				ElapsedMS:   msSince(start),
			}
			// One entry per cache-bearing level (a dummy root carries none).
			for k := 1; k <= len(m.LevelStats); k++ {
				resp.MissRates = append(resp.MissRates, m.MissRateL(k))
			}
			if ev := eventFrom(ctx); ev != nil {
				ev.Family = j.family
				ev.CacheKey = mr.CacheKey
				ev.Mode = serveMode(mr)
			}
			return resp, nil
		})
	})
}

// httpError carries a status code chosen by the handler body.
type httpError struct {
	status int
	err    error
}

func (e *httpError) Error() string { return e.err.Error() }
func (e *httpError) Unwrap() error { return e.err }

func badRequest(err error) error { return &httpError{status: http.StatusBadRequest, err: err} }

// errInternal is all a client sees of a handler panic; the panic value
// goes to the wide event, the log and cachemapd_panics_total.
var errInternal = errors.New("internal error")

// serve is the shared request scaffold: accounting, the request root span
// (ingesting `traceparent`, echoing `X-Trace-Id`), body limits, deadline,
// dispatch, JSON encoding of the result or error, the wide event and the
// access log. Tracing runs exactly when the event ring does: a trace is
// only ever kept on its request's event.
//
// A panic in fn, including one a worker of the request re-raised on its
// goroutine, is recovered before anything is written: the client gets a
// 500 with errInternal, and the panic is counted, put on the event and
// logged with its stack. http.ErrAbortHandler passes through to net/http,
// which aborts the response as it documents.
func (s *Server) serve(w http.ResponseWriter, r *http.Request, fn func(ctx context.Context, body []byte) (any, error)) {
	s.reqTotal.Inc()
	s.inFlight.Inc()
	defer s.inFlight.Dec()
	start := time.Now()

	// The request's wide event rides the context so deeper layers
	// (admission wait, serve-mode classification) annotate it in place;
	// serve publishes a copy once the response is out.
	ev := &Event{Time: start, Method: r.Method, Path: r.URL.Path}
	rctx := r.Context()
	var span *obs.Span
	if s.events != nil {
		remote, _ := obs.ParseTraceParent(r.Header.Get("traceparent"))
		rctx, span = obs.StartRoot(rctx, r.Method+" "+r.URL.Path, remote)
		ev.TraceID = span.TraceID().String()
		w.Header().Set("X-Trace-Id", ev.TraceID)
		span.SetAttr("http.method", r.Method)
		span.SetAttr("http.path", r.URL.Path)
	}
	rctx = withEvent(rctx, ev)

	status := http.StatusOK
	var panicked any
	var stack []byte
	v, err := func() (_ any, err error) {
		defer func() {
			if p := recover(); p != nil {
				if p == http.ErrAbortHandler {
					panic(p)
				}
				panicked, stack, err = p, debug.Stack(), errInternal
			}
		}()
		body, err := readBody(w, r)
		if err != nil {
			return nil, badRequest(err)
		}
		ctx, cancel := context.WithTimeout(rctx, s.cfg.RequestTimeout)
		defer cancel()
		return fn(ctx, body)
	}()
	if err != nil {
		var he *httpError
		var se *shedError
		var ie *faults.InjectedError
		switch {
		case errors.As(err, &he):
			status = he.status
			err = he.err
		case errors.As(err, &se):
			status = http.StatusTooManyRequests
			w.Header().Set("Retry-After", strconv.Itoa(se.seconds()))
		case errors.Is(err, errBusy):
			status = http.StatusServiceUnavailable
		case errors.Is(err, errDeadline):
			status = http.StatusGatewayTimeout
		case errors.As(err, &ie):
			status = http.StatusServiceUnavailable
		default:
			status = http.StatusInternalServerError
		}
		s.writeError(w, status, err)
	} else {
		s.writeJSON(w, status, v)
	}

	d := time.Since(start)
	// The exemplar ties the bucket's most recent observation back to its
	// trace, so a latency spike in /metrics links to /debug/traces/{id}.
	s.reqDur.ObserveWithExemplar(d.Seconds(), ev.TraceID)
	ev.Status = status
	ev.DurationMS = float64(d) / float64(time.Millisecond)
	if err != nil {
		ev.Error = err.Error()
	}
	if panicked != nil {
		ev.Error = fmt.Sprintf("panic: %v", panicked)
		s.panics.Inc(panicSite(r))
		if s.cfg.Logger != nil {
			s.cfg.Logger.Error("handler panic", "path", r.URL.Path, "trace_id", ev.TraceID,
				"panic", fmt.Sprint(panicked), "stack", string(stack))
		}
	}
	if span != nil {
		span.SetAttr("http.status", strconv.Itoa(status))
		if err != nil {
			span.SetAttr("error", ev.Error)
		}
		ev.Trace = span.End()
		s.events.Add(*ev)
	}
	// Offer the served plan for shadow simulation only after the event is
	// retained, so the worker's verdict always finds its event to backfill
	// (the sim itself runs on the sampler worker, never here).
	if ev.sample != nil && s.sampler.Offer(*ev.sample) && s.events != nil {
		s.events.markSampled(ev.TraceID)
	}
	s.logRequest(r, status, d, ev)
}

// panicSite names a request's route for cachemapd_panics_total: its path,
// with a fill request's plan key folded to {key} so the label stays
// bounded.
func panicSite(r *http.Request) string {
	if k := r.PathValue("key"); k != "" {
		return strings.TrimSuffix(r.URL.Path, k) + "{key}"
	}
	return r.URL.Path
}

// logRequest emits the structured access log line and, above the
// slow-request threshold, a Warn line carrying the request's span
// breakdown (from the event's own trace). 200-OK fast-path lines are
// sampled down by LogSampleRate; errors, degraded responses and slow
// requests always log — a quiet log never hides a misbehaving request.
func (s *Server) logRequest(r *http.Request, status int, d time.Duration, ev *Event) {
	slow := s.cfg.SlowRequestThreshold > 0 && d >= s.cfg.SlowRequestThreshold
	if slow {
		s.slowRequests.Inc()
	}
	if s.cfg.Logger == nil {
		return
	}
	mundane := status < 300 && !slow && ev.DegradedCause == ""
	if mundane && !quality.Drawn(logSampleSeed, s.logN.Add(1), s.cfg.LogSampleRate) {
		return
	}
	attrs := []slog.Attr{
		slog.String("method", r.Method),
		slog.String("path", r.URL.Path),
		slog.Int("status", status),
		slog.Duration("duration", d),
		slog.String("remote", r.RemoteAddr),
	}
	if ev.TraceID != "" {
		attrs = append(attrs, slog.String("trace_id", ev.TraceID))
	}
	if ev.Mode != "" {
		attrs = append(attrs, slog.String("mode", ev.Mode))
	}
	if ev.Family != "" {
		attrs = append(attrs, slog.String("family", ev.Family))
	}
	s.cfg.Logger.LogAttrs(context.Background(), slog.LevelInfo, "request", attrs...)
	if slow {
		if ev.Trace != nil {
			attrs = append(attrs, slog.String("spans", spanBreakdown(ev.Trace)))
		}
		attrs = append(attrs, slog.Duration("threshold", s.cfg.SlowRequestThreshold))
		s.cfg.Logger.LogAttrs(context.Background(), slog.LevelWarn, "slow request", attrs...)
	}
}

// spanBreakdown renders a trace's non-root spans compactly for the
// slow-request log: "plancache.compute=1.2s cluster=900ms ...".
func spanBreakdown(t *obs.Trace) string {
	var b bytes.Buffer
	for i, sp := range t.Spans {
		if i == len(t.Spans)-1 { // root span: its duration is the log's duration field
			continue
		}
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%s", sp.Name, time.Duration(sp.DurationNS))
	}
	return b.String()
}

func readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	defer r.Body.Close()
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		return nil, fmt.Errorf("reading body: %w", err)
	}
	return body, nil
}

// decodeStrict unmarshals JSON, rejecting unknown fields so spec typos
// fail loudly instead of silently mapping the wrong thing.
func decodeStrict(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("decoding request: %w", err)
	}
	return nil
}

// jsonBuf is a pooled response-encode buffer with its bound encoder, so a
// plan-cache hit (or repair) response reuses one buffer instead of paying
// encoder state and copy-on-grow garbage per request. Encoding into the
// buffer before touching the ResponseWriter also means an encode failure
// still yields a clean 500 instead of a torn body.
type jsonBuf struct {
	buf bytes.Buffer
	enc *json.Encoder
}

var jsonBufPool = sync.Pool{New: func() any {
	b := &jsonBuf{}
	b.enc = json.NewEncoder(&b.buf)
	return b
}}

// jsonBufMaxRetain caps the buffer size returned to the pool; a rare huge
// plan should not pin its backing array forever.
const jsonBufMaxRetain = 1 << 20

func getJSONBuf() *jsonBuf {
	b := jsonBufPool.Get().(*jsonBuf)
	b.buf.Reset()
	return b
}

func putJSONBuf(b *jsonBuf) {
	if b.buf.Cap() <= jsonBufMaxRetain {
		jsonBufPool.Put(b)
	}
}

// writeJSON writes v as the response body; a body carrying plan bytes
// splices them in (see splice).
func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	b := getJSONBuf()
	defer putJSONBuf(b)
	var err error
	if sb, ok := v.(splicedBody); ok {
		err = sb.render(&b.buf)
	} else {
		err = b.enc.Encode(v)
	}
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, fmt.Errorf("encoding response: %w", err))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(b.buf.Len()))
	w.WriteHeader(status)
	w.Write(b.buf.Bytes())
}

func (s *Server) writeError(w http.ResponseWriter, status int, err error) {
	s.reqErrors.Inc()
	s.writeJSON(w, status, errorResponse{Error: err.Error()})
}
