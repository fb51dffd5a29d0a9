package server

import (
	"encoding/json"
	"fmt"
	"sync"

	"repro/internal/cache"
	"repro/internal/hierarchy"
	"repro/internal/iosim"
	"repro/internal/mapping"
	"repro/internal/pipeline"
	"repro/internal/plancache"
	"repro/internal/workloads"
)

// WorkloadSpec names the workload a request maps: one of the paper's
// application models (App) or a generated workload (Synth / Stencil).
// Exactly one of App, Synth, Stencil must be set.
type WorkloadSpec struct {
	// App is one of the paper's eight application models (see
	// workloads.Names); Scale >= 1 divides every extent (default 1).
	App   string `json:"app,omitempty"`
	Scale int    `json:"scale,omitempty"`
	// Synth builds a workload from the parameterized synthetic generator.
	Synth *workloads.SynthSpec `json:"synth,omitempty"`
	// Stencil builds a 2-D stencil workload.
	Stencil *workloads.StencilSpec `json:"stencil,omitempty"`
	// ChunkKB re-partitions the data space into chunks of this many KB
	// (default: the workload's own chunk size).
	ChunkKB int64 `json:"chunk_kb,omitempty"`
}

// MapRequest is the body of `POST /v1/map`: everything a plan depends on.
// Its canonical JSON encoding (with defaults applied) is the plan-cache
// key.
type MapRequest struct {
	Workload WorkloadSpec `json:"workload"`
	// Topology is the compact layered spec of cmd/cachemap's -topo flag,
	// e.g. "16/32/64@16,8,4" (node counts top-down, then per-layer cache
	// capacities in chunks).
	Topology string `json:"topology"`
	// Scheme is one of original, intra, inter, inter-sched (default inter).
	Scheme string `json:"scheme,omitempty"`
	// BalanceThreshold is the distributor's load-balance bound (default
	// 0.10, the paper's BThres).
	BalanceThreshold float64 `json:"balance_threshold,omitempty"`
	// Alpha and Beta weigh the Figure 15 scheduler (default 0.5 each;
	// neither may be negative).
	Alpha float64 `json:"alpha,omitempty"`
	Beta  float64 `json:"beta,omitempty"`
	// DepMode is one of ignore, merge, sync (default ignore).
	DepMode string `json:"dep_mode,omitempty"`
}

// MapResponse is the body returned by `POST /v1/map`.
type MapResponse struct {
	// Plan is the versioned, serializable mapping (see mapping.Plan).
	Plan mapping.Plan `json:"plan"`
	// Stages is the per-stage timing breakdown of the pipeline run that
	// produced the plan. When Cached is true, it describes the original
	// (cold) computation, not this request.
	Stages []pipeline.StageTiming `json:"stages"`
	// CacheKey is the plan's content address (hex SHA-256).
	CacheKey string `json:"cache_key"`
	// Cached reports whether the plan was served from the plan cache.
	Cached bool `json:"cached"`
	// FilledFrom, when non-empty, is the ring peer whose cache or pipeline
	// supplied this plan over the peer-fill protocol (the plan's owner).
	// It persists while the filled entry lives in the local cache.
	FilledFrom string `json:"filled_from,omitempty"`
	// Replanned records how the plan was produced: "full" (the whole
	// pipeline ran) or "incremental" (a cached clustering of the same
	// workload was repaired — re-balanced and re-scheduled — for this
	// topology). When Cached is true it describes the original production,
	// like Stages. Empty for peer-filled and degraded responses.
	Replanned string `json:"replanned,omitempty"`
	// ReusedStages lists the pipeline stages an incremental repair reused
	// from the cached clustering instead of re-running (the complement of
	// the entries in Stages).
	ReusedStages []string `json:"reused_stages,omitempty"`
	// ElapsedMS is the server-side time to produce the plan.
	ElapsedMS float64 `json:"elapsed_ms"`
	// Degraded, when non-empty, marks a response served under overload:
	// "stale" (a cached plan for the same workload whose topology drifts
	// within tolerance) or "fallback" (the cheap lexicographic mapping).
	Degraded string `json:"degraded,omitempty"`
	// DegradedCause names the overload symptom that triggered degradation:
	// queue_full, admission_timeout, deadline or fault.
	DegradedCause string `json:"degraded_cause,omitempty"`
	// StaleAgeMS is the age of the stale plan served (Degraded == "stale").
	StaleAgeMS float64 `json:"stale_age_ms,omitempty"`

	// raw is the plan as the server holds it, its canonical JSON: the HTTP
	// body splices it in verbatim and leaves Plan zero. ComputePlan fills
	// Plan from it.
	raw *planJSON
}

// SimRequest is the body of `POST /v1/simulate`: a mapping request plus
// optional simulator knobs. The embedded mapping request goes through the
// plan cache exactly like `POST /v1/map`.
type SimRequest struct {
	MapRequest
	// Policy selects the storage-cache replacement policy: lru (default),
	// fifo, clock, mq.
	Policy string `json:"policy,omitempty"`
	// WritePolicy is one of allocate (default), fetch, through.
	WritePolicy string `json:"write_policy,omitempty"`
	// PrefetchDepth enables sequential readahead of this many chunks.
	PrefetchDepth int `json:"prefetch_depth,omitempty"`
	// Exclusive enables DEMOTE-style exclusive caching.
	Exclusive bool `json:"exclusive,omitempty"`
	// Cooperative enables cooperative sibling-cache probing.
	Cooperative bool `json:"cooperative,omitempty"`
}

// SimResponse is the body returned by `POST /v1/simulate`.
type SimResponse struct {
	Scheme string `json:"scheme"`
	// MissRates[k-1] is the aggregate miss rate of paper-level Lk
	// (L1 = client caches, upward from there).
	MissRates   []float64 `json:"miss_rates"`
	IOLatencyMS float64   `json:"io_latency_ms"`
	ExecTimeMS  float64   `json:"exec_time_ms"`
	DiskReads   int64     `json:"disk_reads"`
	Writebacks  int64     `json:"writebacks"`
	Iterations  int64     `json:"iterations"`
	// CacheKey / Cached describe the plan-cache interaction of the
	// underlying mapping.
	CacheKey  string  `json:"cache_key"`
	Cached    bool    `json:"cached"`
	ElapsedMS float64 `json:"elapsed_ms"`
}

// errorResponse is the JSON error envelope for non-2xx statuses.
type errorResponse struct {
	Error string `json:"error"`
}

// job is a fully validated, defaulted mapping request ready to run.
type job struct {
	req    MapRequest // normalized: defaults applied
	work   workloads.Workload
	tree   *hierarchy.Tree
	scheme pipeline.Scheme
	cfg    pipeline.Config

	// family is the workload family for telemetry grouping: the app name,
	// or the synthetic/stencil spec's name when it carries one.
	family string
	// cost estimates the job's work for admission accounting: iteration
	// count × topology size.
	cost int64
	// key is the plan's content address (PlanKey of req), hashed once.
	// wkKey is the workload-only content address (the request with its
	// topology cleared) and topoSig the topology summary — together the
	// stale tier's lookup key for degraded serving.
	key     plancache.Key
	wkKey   plancache.Key
	topoSig plancache.TopoSig
}

// normalize applies defaults in place so that equivalent requests share
// one canonical encoding (and therefore one cache key).
func (r *MapRequest) normalize() {
	if r.Scheme == "" {
		r.Scheme = string(pipeline.InterProcessor)
	}
	if r.Workload.App != "" && r.Workload.Scale == 0 {
		r.Workload.Scale = 1
	}
	if r.BalanceThreshold == 0 {
		r.BalanceThreshold = 0.10
	}
	if r.Alpha == 0 && r.Beta == 0 {
		r.Alpha, r.Beta = 0.5, 0.5
	}
	if r.DepMode == "" {
		r.DepMode = "ignore"
	}
}

// parseDepMode maps the wire name to the pipeline constant.
func parseDepMode(s string) (pipeline.DepMode, error) {
	switch s {
	case "ignore":
		return pipeline.DepIgnore, nil
	case "merge":
		return pipeline.DepMerge, nil
	case "sync":
		return pipeline.DepSync, nil
	}
	return 0, fmt.Errorf("unknown dep_mode %q (want ignore, merge or sync)", s)
}

// The spec caches memoize the two expensive, deterministic artifacts a
// request derives before it can even probe the plan cache: the parsed
// topology tree (plus its drift signature) and the constructed workload.
// Both are pure functions of their spec and read-only downstream — the
// planner builds fresh chunks per run, the simulator keys its per-node
// state by node ID, and nothing assigns into a Node after hierarchy.Build —
// so sharing them across requests is safe and takes the plan-cache hit
// path from ~160 allocations to a handful (see TestAllocPlanCacheHit). A
// serving fleet sees a tiny vocabulary of specs; adversarial spec churn is
// bounded by wholesale reset instead of eviction bookkeeping.
const specCacheMax = 512

type cachedTopo struct {
	tree *hierarchy.Tree
	sig  plancache.TopoSig
}

var (
	topoCacheMu sync.Mutex
	topoCache   map[string]cachedTopo
)

func parseTopology(spec string) (cachedTopo, error) {
	topoCacheMu.Lock()
	ct, ok := topoCache[spec]
	topoCacheMu.Unlock()
	if ok {
		return ct, nil
	}
	tree, err := hierarchy.Parse(spec)
	if err != nil {
		return cachedTopo{}, err
	}
	ct = cachedTopo{tree: tree, sig: topoSigOf(tree)}
	topoCacheMu.Lock()
	if topoCache == nil || len(topoCache) >= specCacheMax {
		topoCache = make(map[string]cachedTopo)
	}
	topoCache[spec] = ct
	topoCacheMu.Unlock()
	return ct, nil
}

type cachedWorkload struct {
	work   workloads.Workload
	family string
}

var (
	workCacheMu sync.Mutex
	workCache   map[string]cachedWorkload
)

// buildWorkload resolves the request's workload spec, memoized on the
// spec's canonical JSON (normalize ran first, so equivalent requests share
// one encoding — the same property the plan-cache key relies on).
func buildWorkload(spec WorkloadSpec) (cachedWorkload, error) {
	rawKey, err := json.Marshal(spec)
	if err != nil {
		return cachedWorkload{}, err
	}
	key := string(rawKey)
	workCacheMu.Lock()
	cw, ok := workCache[key]
	workCacheMu.Unlock()
	if ok {
		return cw, nil
	}

	var w workloads.Workload
	set := 0
	if spec.App != "" {
		set++
	}
	if spec.Synth != nil {
		set++
	}
	if spec.Stencil != nil {
		set++
	}
	if set != 1 {
		return cachedWorkload{}, fmt.Errorf("workload: exactly one of app, synth, stencil must be set")
	}
	family := ""
	switch {
	case spec.App != "":
		w, err = workloads.Get(spec.App, spec.Scale)
		family = spec.App
	case spec.Synth != nil:
		w, err = workloads.Synthesize(*spec.Synth)
		if family = spec.Synth.Name; family == "" {
			family = "synth"
		}
	default:
		w, err = workloads.SynthesizeStencil(*spec.Stencil)
		if family = spec.Stencil.Name; family == "" {
			family = "stencil"
		}
	}
	if err != nil {
		return cachedWorkload{}, err
	}
	if spec.ChunkKB < 0 {
		return cachedWorkload{}, fmt.Errorf("workload: negative chunk_kb %d", spec.ChunkKB)
	}
	if spec.ChunkKB > 0 {
		w = w.WithChunkBytes(spec.ChunkKB * 1024)
	}

	cw = cachedWorkload{work: w, family: family}
	workCacheMu.Lock()
	if workCache == nil || len(workCache) >= specCacheMax {
		workCache = make(map[string]cachedWorkload)
	}
	workCache[key] = cw
	workCacheMu.Unlock()
	return cw, nil
}

// buildJob validates the request and constructs the workload, topology and
// mapping configuration it describes.
func buildJob(req MapRequest) (*job, error) {
	req.normalize()

	cw, err := buildWorkload(req.Workload)
	if err != nil {
		return nil, err
	}
	w, family := cw.work, cw.family

	if req.Topology == "" {
		return nil, fmt.Errorf("topology: missing (compact spec such as \"16/32/64@16,8,4\")")
	}
	ct, err := parseTopology(req.Topology)
	if err != nil {
		return nil, err
	}
	tree := ct.tree

	scheme, err := pipeline.ParseScheme(req.Scheme)
	if err != nil {
		return nil, err
	}
	dep, err := parseDepMode(req.DepMode)
	if err != nil {
		return nil, err
	}
	if req.BalanceThreshold < 0 || req.BalanceThreshold > 1 {
		return nil, fmt.Errorf("balance_threshold %g outside [0, 1]", req.BalanceThreshold)
	}
	if req.Alpha < 0 || req.Beta < 0 {
		return nil, fmt.Errorf("alpha %g and beta %g must not be negative", req.Alpha, req.Beta)
	}

	cfg := pipeline.Config{Tree: tree, DepMode: dep}
	cfg.Options.BalanceThreshold = req.BalanceThreshold
	cfg.Schedule.Alpha = req.Alpha
	cfg.Schedule.Beta = req.Beta

	j := &job{req: req, work: w, tree: tree, scheme: scheme, cfg: cfg, family: family}
	j.cost = w.Prog.Nest.BoxSize() * int64(len(tree.Nodes()))
	j.topoSig = ct.sig
	if j.key, err = PlanKey(req); err != nil {
		return nil, err
	}
	wk := req
	wk.Topology = "" // workload identity only: any topology may serve stale
	if j.wkKey, err = plancache.KeyOf(planKeySpec{Schema: mapping.PlanSchemaVersion, Request: wk}); err != nil {
		return nil, err
	}
	return j, nil
}

// simParams builds the simulator timing model from the request's knobs.
func (r SimRequest) simParams() (iosim.Params, error) {
	p := iosim.DefaultParams()
	if r.Policy != "" {
		k, err := cache.ParsePolicy(r.Policy)
		if err != nil {
			return p, err
		}
		p.Policy = k
	}
	switch r.WritePolicy {
	case "", "allocate":
		p.Writes = iosim.WriteAllocateNoFetch
	case "fetch":
		p.Writes = iosim.WriteAllocateFetch
	case "through":
		p.Writes = iosim.WriteThrough
	default:
		return p, fmt.Errorf("unknown write_policy %q (want allocate, fetch or through)", r.WritePolicy)
	}
	if r.PrefetchDepth < 0 {
		return p, fmt.Errorf("negative prefetch_depth %d", r.PrefetchDepth)
	}
	p.PrefetchDepth = r.PrefetchDepth
	p.Exclusive = r.Exclusive
	p.Cooperative = r.Cooperative
	return p, nil
}
