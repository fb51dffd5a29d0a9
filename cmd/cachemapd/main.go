// Command cachemapd serves hierarchy-aware computation mappings over HTTP:
// the paper's mapper as a long-running daemon with a content-addressed plan
// cache, a bounded worker pool and Prometheus metrics.
//
// Usage:
//
//	cachemapd                          # listen on :8642
//	cachemapd -addr :9000 -workers 8 -cache 1024 -timeout 10s
//	cachemapd -addr :0                 # ephemeral port; read it from the "listening" log line
//	cachemapd -debug-addr 127.0.0.1:8643 -mutex-fraction 5
//	cachemapd -queue 128 -queue-cost 1000000 -degraded
//	cachemapd -repair
//	cachemapd -faults 'latency:pipeline/tags:0.2:50ms;crash:plancache/leader:0.05' -fault-seed 42
//	cachemapd -store-dir /var/lib/cachemapd -store-fsync always
//	cachemapd -addr :8642 -self 127.0.0.1:8642 \
//	          -peers 127.0.0.1:8642,127.0.0.1:8643,127.0.0.1:8644
//
// Endpoints:
//
//	POST /v1/map              {"workload":{"app":"apsi"},"topology":"16/32/64@16,8,4","scheme":"inter"}
//	POST /v1/map/batch        {"requests":[...]} — many specs, one admission unit; same-workload
//	                          specs share one pipeline-prefix run (see -repair semantics)
//	POST /v1/simulate         same body plus optional simulator knobs (policy, prefetch_depth, …)
//	POST /internal/plan/{key} peer-fill protocol between ring members
//	GET  /healthz             liveness, admission-queue and ring health (JSON)
//	GET  /metrics             Prometheus text exposition
//	GET  /debug/events        wide per-request events (?family=, ?mode=, ?min_ms=, ?limit=)
//	GET  /debug/traces        the same requests' traces as JSON (same filters)
//	GET  /debug/traces/{id}   one trace in Chrome trace_event format
//	GET  /debug/quality       plan-quality ledger; on a ring, the fleet-wide view
//	GET  /debug/faults        armed fault rules with evaluation counters (with -faults)
//	POST /debug/faults        replace the armed fault rules (JSON array)
//	GET  /debug/cache/snapshot  persistent plan-store stats (with -store-dir)
//	POST /debug/cache/snapshot  flush the write queue and force a compaction
//
// Plan-quality telemetry: -quality-sample N shadow-simulates a
// deterministic fraction of served /v1/map plans on a dedicated worker
// (never on the request path), recording per-level miss rates, load
// imbalance and estimated execution time per workload family and serve
// mode (full, cached, incremental, degraded) into the ledger behind
// /debug/quality and the cachemapd_plan_quality_missrate gauges. Every
// request also emits one wide event (trace ID, family, serve mode, reused
// stages, admission wait, stage timings, its trace, sampled quality
// verdict) into the one per-request ring behind /debug/events and
// /debug/traces, bounded by -events; -log-sample thins the 200-OK
// access-log lines without touching error/degraded/slow logging.
//
// Overload behaviour: a bounded admission queue (-queue, -queue-cost)
// fronts the worker pool; saturated arrivals are shed with 429 and a
// Retry-After hint. With -degraded, shed and timed-out requests are
// instead answered by a stale-but-valid plan (same workload, topology
// drift within 25% per layer) or the cheap lexicographic fallback,
// marked in the response. -faults arms the deterministic fault injector
// (kind:site:prob[:delay] rules, seeded by -fault-seed) for chaos testing.
//
// Incremental re-planning: with -repair, a /v1/map miss whose workload has
// a cached clustering under a topology within 25% per layer re-enters
// the pipeline at the balance stage instead of recomputing from tags; the
// response reports replanned:"incremental" and the reused stages. Batch
// requests always repair within their own family, regardless of -repair.
//
// Clustering: -peers (the full fleet, comma-separated) and -self (this
// node's address exactly as listed in -peers) join the daemon to a
// consistent-hash ring over which the fleet shares one logical plan
// cache: each plan key has one owner, local misses peer-fill from it
// (POST /internal/plan/{key}), and the owner's singleflight makes its
// computation the fleet-wide one. Every node must be started with the
// same -peers for ownership to agree; the ring's virtual points per peer
// and placement seed are constants (cluster.RingVNodes, cluster.RingSeed).
// A failed or slow fill (bounded by -fill-timeout) falls back to local
// computation, so a dead owner degrades throughput, not availability.
//
// Persistence: -store-dir backs the plan cache with a crash-safe
// append-only log so computed plans survive restarts — the daemon
// warm-scans the log on startup (verifying checksums, truncating a torn
// tail, dropping schema-mismatched records) and serves previously
// computed plans with zero recomputation. Writes are write-behind off
// the request path; -store-fsync (batch|always|never) picks the
// durability point. The log holds at most 4096 plans and compacts once
// half its bytes are dead. See the /debug/cache/snapshot endpoints and
// README "Persistent plan store".
//
// Every request runs under a trace span (unless -events 0 turns the ring
// and tracing off); callers may propagate W3C trace-context via the
// traceparent header and correlate responses through X-Trace-Id. With
// -debug-addr set, net/http/pprof is served on a second, private listener
// so profiling endpoints never share the public address.
//
// The daemon drains gracefully: on SIGTERM/SIGINT it stops accepting
// connections, lets in-flight requests finish (up to -drain), then exits.
package main

import (
	"context"
	"errors"
	"flag"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/planstore"
	"repro/internal/server"
)

func main() {
	addr := flag.String("addr", ":8642", "listen address")
	workers := flag.Int("workers", 0, "max concurrent mapping jobs (0 = GOMAXPROCS)")
	cacheSize := flag.Int("cache", 512, "plan cache capacity (plans)")
	timeout := flag.Duration("timeout", 30*time.Second, "per-request deadline (queueing + computation)")
	drain := flag.Duration("drain", 15*time.Second, "shutdown drain budget for in-flight requests")
	slow := flag.Duration("slow", 0, "log a warning with a span breakdown for requests slower than this (0 disables)")
	debugAddr := flag.String("debug-addr", "", "separate listen address for net/http/pprof (empty disables)")
	mutexFraction := flag.Int("mutex-fraction", 0, "runtime mutex profile fraction (0 leaves profiling off)")
	queue := flag.Int("queue", 64, "admission queue depth; beyond it requests are shed with 429 (negative: shed whenever no worker is free)")
	queueCost := flag.Int64("queue-cost", 0, "admission queue summed-cost bound, in iterations x topology nodes (0 = unbounded)")
	degraded := flag.Bool("degraded", false, "serve stale or fallback plans instead of failing shed/timed-out requests")
	repair := flag.Bool("repair", false, "answer near-miss /v1/map requests by incrementally re-planning a cached clustering of the same workload")
	faultSpec := flag.String("faults", "", "arm the fault injector: semicolon-separated kind:site:prob[:delay] rules")
	faultSeed := flag.Uint64("fault-seed", 1, "seed for the deterministic fault injector")
	peers := flag.String("peers", "", "comma-separated ring peer addresses, identical fleet-wide (empty: standalone)")
	self := flag.String("self", "", "this node's address exactly as it appears in -peers (required with -peers)")
	fillTimeout := flag.Duration("fill-timeout", 10*time.Second, "deadline for one peer-fill fetch")
	qualitySample := flag.Float64("quality-sample", 0, "fraction of served /v1/map responses shadow-simulated off the request path into the /debug/quality ledger (0 disables)")
	logSample := flag.Float64("log-sample", 1, "fraction of 200-OK fast-path access-log lines emitted; errors, degraded and slow requests always log")
	events := flag.Int("events", 256, "requests retained, with their traces, for /debug/events and /debug/traces (0 disables the ring and tracing)")
	storeDir := flag.String("store-dir", "", "persistent plan store directory; restarts warm-scan it and serve prior plans as hits (empty disables)")
	storeFsync := flag.String("store-fsync", "batch", "plan log durability policy: always, batch or never")
	flag.Parse()

	logger := slog.New(slog.NewTextHandler(os.Stderr, nil))

	var injector *faults.Injector
	if *faultSpec != "" {
		rules, err := faults.ParseSpec(*faultSpec)
		if err != nil {
			logger.Error("bad -faults spec", "err", err)
			os.Exit(2)
		}
		injector = faults.New(*faultSeed)
		if err := injector.SetRules(rules); err != nil {
			logger.Error("bad -faults spec", "err", err)
			os.Exit(2)
		}
		logger.Info("fault injection armed", "seed", *faultSeed, "rules", len(rules))
	}

	if *mutexFraction > 0 {
		runtime.SetMutexProfileFraction(*mutexFraction)
	}

	// One registry shared by the server and the cluster node, so ring
	// metrics surface on the same /metrics exposition.
	reg := metrics.NewRegistry()
	var node *cluster.Node
	if *peers != "" {
		var list []string
		for _, p := range strings.Split(*peers, ",") {
			if p = strings.TrimSpace(p); p != "" {
				list = append(list, p)
			}
		}
		var err error
		node, err = cluster.New(cluster.Config{
			Self:        *self,
			Peers:       list,
			FillTimeout: *fillTimeout,
			Registry:    reg,
		})
		if err != nil {
			logger.Error("bad ring configuration", "err", err)
			os.Exit(2)
		}
		logger.Info("joined ring", "self", *self, "peers", len(list),
			"vnodes", cluster.RingVNodes, "seed", cluster.RingSeed, "fill_timeout", *fillTimeout)
	} else if *self != "" {
		logger.Error("-self is set but -peers is empty")
		os.Exit(2)
	}

	eventBuf := *events
	if eventBuf == 0 {
		eventBuf = -1 // Config treats 0 as "default"; negative disables.
	}
	logRate := *logSample
	if logRate <= 0 {
		logRate = -1 // Config treats 0 as "default 1"; negative: sample none.
	}
	fsyncPolicy, err := planstore.ParseFsyncPolicy(*storeFsync)
	if err != nil {
		logger.Error("bad -store-fsync", "err", err)
		os.Exit(2)
	}
	srv, err := server.NewServer(server.Config{
		Registry:             reg,
		Workers:              *workers,
		PlanCacheSize:        *cacheSize,
		RequestTimeout:       *timeout,
		Logger:               logger,
		SlowRequestThreshold: *slow,
		AdmissionQueueDepth:  *queue,
		AdmissionQueueCost:   *queueCost,
		Degraded:             *degraded,
		Repair:               server.RepairConfig{Enabled: *repair},
		Faults:               injector,
		Cluster:              node,
		EventBufferSize:      eventBuf,
		LogSampleRate:        logRate,
		QualitySampleRate:    *qualitySample,
		Store:                server.StoreConfig{Dir: *storeDir, Fsync: fsyncPolicy},
	})
	if err != nil {
		logger.Error("starting server", "err", err)
		os.Exit(1)
	}
	if *storeDir != "" {
		logger.Info("plan store open", "dir", *storeDir, "fsync", fsyncPolicy.String())
	}
	defer srv.Close()
	hs := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()

	// Listen explicitly (rather than ListenAndServe) so -addr :0 works for
	// test harnesses: the "listening" log line always carries the actual
	// bound address, which the process tests parse to find the ephemeral
	// port.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Error("listen", "addr", *addr, "err", err)
		os.Exit(1)
	}
	errCh := make(chan error, 1)
	go func() { errCh <- hs.Serve(ln) }()
	logger.Info("listening",
		"addr", ln.Addr().String(), "workers", *workers, "cache", *cacheSize,
		"timeout", *timeout, "events", *events,
		"queue", *queue, "degraded", *degraded)

	// pprof on its own listener: an explicit mux, so nothing inherits the
	// DefaultServeMux side-effect registrations on the public address.
	var ds *http.Server
	if *debugAddr != "" {
		dmux := http.NewServeMux()
		dmux.HandleFunc("/debug/pprof/", pprof.Index)
		dmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			logger.Error("debug listen", "addr", *debugAddr, "err", err)
			os.Exit(1)
		}
		ds = &http.Server{Handler: dmux, ReadHeaderTimeout: 5 * time.Second}
		go func() {
			if err := ds.Serve(dln); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Error("debug listener", "err", err)
			}
		}()
		logger.Info("pprof listening", "addr", dln.Addr().String(),
			"mutex_fraction", *mutexFraction)
	}

	select {
	case err := <-errCh:
		logger.Error("serve", "err", err)
		os.Exit(1)
	case <-ctx.Done():
	}
	stop() // restore default signal behaviour: a second signal kills us

	logger.Info("signal received, draining in-flight requests", "budget", *drain)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if ds != nil {
		ds.Shutdown(shutdownCtx)
	}
	if err := hs.Shutdown(shutdownCtx); err != nil {
		logger.Error("drain incomplete", "err", err)
		os.Exit(1)
	}
	if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Error("serve", "err", err)
		os.Exit(1)
	}
	logger.Info("drained, exiting")
}
