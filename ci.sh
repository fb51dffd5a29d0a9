#!/bin/sh
# Lightweight CI: formatting, build, vet, linters, race-enabled tests, the
# short-mode reproduction-fidelity gate, the bench regression gates, and
# end-to-end daemon smoke tests (tracing, batch repair, overload/chaos,
# quality telemetry, kill/restart persistence) — the tier-1 gate. The
# 3-node ring runs as TestRingCluster inside the race-enabled tests. Run
# by .github/workflows/ci.yml and locally as ./ci.sh.
set -eu

echo "==> gofmt"
fmt=$(gofmt -l .)
if [ -n "$fmt" ]; then
	echo "gofmt: the following files are not formatted:" >&2
	echo "$fmt" >&2
	exit 1
fi

echo "==> go build ./..."
go build ./...

echo "==> go vet ./..."
go vet ./...

# Optional linters: pinned installs when absent; offline environments skip
# them gracefully (the pinned `go install` needs the module proxy). The
# pins live in .github/workflows/ci.yml's env block — the workflow exports
# them so ci.sh and CI can't drift; these are the local-run fallbacks and
# must match the workflow.
STATICCHECK_VERSION=${STATICCHECK_VERSION:-2024.1.1}
GOVULNCHECK_VERSION=${GOVULNCHECK_VERSION:-v1.1.3}
have_tool() {
	command -v "$1" >/dev/null 2>&1 || [ -x "$(go env GOPATH)/bin/$1" ]
}
run_tool() {
	tool=$1
	shift
	if command -v "$tool" >/dev/null 2>&1; then
		"$tool" "$@"
	else
		"$(go env GOPATH)/bin/$tool" "$@"
	fi
}

echo "==> staticcheck"
if ! have_tool staticcheck; then
	GOFLAGS= go install "honnef.co/go/tools/cmd/staticcheck@${STATICCHECK_VERSION}" 2>/dev/null || true
fi
if have_tool staticcheck; then
	run_tool staticcheck ./...
else
	echo "staticcheck unavailable (offline?); skipping" >&2
fi

echo "==> govulncheck"
if ! have_tool govulncheck; then
	GOFLAGS= go install "golang.org/x/vuln/cmd/govulncheck@${GOVULNCHECK_VERSION}" 2>/dev/null || true
fi
if have_tool govulncheck; then
	# The vuln DB needs network too; tolerate fetch failures offline.
	run_tool govulncheck ./... || echo "govulncheck failed (offline vuln DB fetch?); continuing" >&2
else
	echo "govulncheck unavailable (offline?); skipping" >&2
fi

echo "==> go test -race ./..."
go test -race ./...

echo "==> go test -short -run TestShapeClaims ./internal/experiments"
go test -short -run TestShapeClaims ./internal/experiments

echo "==> zero-alloc steady-state gate (GOGC=off, TestAlloc*)"
# The pooled hot paths — posting-index transpose, arena carving, warm
# sparse pair generation, the full distribution run, the plan-cache hit
# serve path — must stay allocation-free (or at their documented small
# constants) once warm. GOGC=off pins sync.Pool contents for the whole
# run, so a GC-timed pool eviction can never fake a regression.
GOGC=off go test -short -count=1 -run 'TestAlloc' . ./internal/core ./internal/bitvec

echo "==> bench regression gate (vs BENCH_9.json)"
# Short mode: fixed iteration counts keep this quick; three samples per
# benchmark are folded to their minimum by benchjson (interference only
# slows a run down), and the 100% tolerance absorbs shared-runner noise —
# observed minute-to-minute drift on 1-CPU CI boxes reaches +80% with no
# code change — while still catching the order-of-magnitude regressions
# the ledger exists to prevent (dense-similarity fallback at ~+470%,
# O(n^2) relapses).
tmp=$(mktemp -d)
daemon_pid=
trap 'if [ -n "$daemon_pid" ]; then kill $daemon_pid 2>/dev/null || true; fi; rm -rf "$tmp"' EXIT
# Bench raw output and comparison verdicts land in BENCH_ARTIFACTS when CI
# sets it (uploaded as a workflow artifact on bench-gate failure); locally
# they stay in the run's temp dir.
bench_dir=${BENCH_ARTIFACTS:-$tmp}
mkdir -p "$bench_dir"
go build -o "$tmp/benchjson" ./cmd/benchjson
# bench_gate <ledger> <raw-bench-output> [benchjson flags...]: compare a
# bench run against its ledger, keeping the verdict next to the raw output
# for the artifact upload, and dumping both on failure.
bench_gate() {
	ledger=$1
	raw=$2
	shift 2
	if ! "$tmp/benchjson" -compare "$ledger" "$@" <"$raw" >"$bench_dir/$(basename "$ledger" .json)-compare.txt" 2>&1; then
		echo "bench gate vs $ledger failed:" >&2
		cat "$bench_dir/$(basename "$ledger" .json)-compare.txt" >&2
		exit 1
	fi
}
# -benchmem arms the allocation side of the gate: the ledger's B/op and
# allocs/op entries are compared under the tighter -alloc-tolerance
# (allocation counts are near-deterministic; 25% absorbs sync.Pool
# eviction jitter while catching a pooled path regressing to per-call
# allocation). The ledger's BenchmarkDistribute entry records the sub-1ms
# steady state this gate anchors to.
#
# Every ledger-gated bench runs at -cpu 1, the CPU count the ledgers were
# recorded at: go test appends "-N" to benchmark names when GOMAXPROCS is N
# > 1, which would match no ledger entry on a multi-core runner, and
# Workers follows GOMAXPROCS, which moves the allocation counts.
go test -run '^$' -bench 'BenchmarkDistribute$|BenchmarkPostings$|BenchmarkCacheHitServe$' -benchtime 100x -benchmem -count=3 -cpu 1 . >"$bench_dir/bench.out" 2>&1 || {
	cat "$bench_dir/bench.out" >&2
	exit 1
}
go test -run '^$' -bench 'BenchmarkPipelineParallelism' -benchtime 1x -count=3 -cpu 1 . >>"$bench_dir/bench.out" 2>&1 || {
	cat "$bench_dir/bench.out" >&2
	exit 1
}
bench_gate BENCH_9.json "$bench_dir/bench.out" -tolerance 100 -alloc-tolerance 25

echo "==> replan speedup floor gate (vs BENCH_7.json)"
# Incremental re-planning must stay at least 5x faster than the full
# pipeline it short-circuits. The ledger's speedup-floor is a hard lower
# bound (benchjson "-floor" semantics): runner noise shrinks a measured
# speedup toward 1, never inflates it, so samples fold by maximum and the
# floor sits far below the ~100x+ measured on an idle machine.
go test -run '^$' -bench 'BenchmarkReplanIncremental$' -benchtime 3x -count=3 -cpu 1 . >"$bench_dir/replan-bench.out" 2>&1 || {
	cat "$bench_dir/replan-bench.out" >&2
	exit 1
}
bench_gate BENCH_7.json "$bench_dir/replan-bench.out"

echo "==> warm-scan bench gate (vs BENCH_10.json)"
# The persistent store's startup scan must stay an O(records) streaming
# read: the ledger records its records/s throughput and allocation
# footprint on a 2048-record log. 100% tolerance for time (CI I/O jitter),
# the tighter alloc tolerance for the scan's near-constant allocations.
go test -run '^$' -bench 'BenchmarkWarmScan$' -benchtime 5x -benchmem -count=3 -cpu 1 ./internal/planstore >"$bench_dir/warmscan-bench.out" 2>&1 || {
	cat "$bench_dir/warmscan-bench.out" >&2
	exit 1
}
bench_gate BENCH_10.json "$bench_dir/warmscan-bench.out" -tolerance 100 -alloc-tolerance 25

echo "==> cachemapd trace smoke test"
# Boot the daemon on ephemeral ports (parsed from its own log, so parallel
# CI runs never collide), send a request carrying a caller-minted
# traceparent, and assert the trace comes back out: X-Trace-Id echoes the
# trace ID, the trace is listed in /debug/traces, the Chrome export
# renders, and pprof answers on the private debug listener.
go build -o "$tmp/cachemapd" ./cmd/cachemapd
go build -o "$tmp/loadgen" ./cmd/loadgen

# parse_addr <log> <msg>: the actual bound address a "listening" log line
# reports (the daemon binds :0, so only the log knows the port).
parse_addr() {
	sed -n "s/.*msg=$2 addr=\([0-9.:]*\).*/\1/p" "$1" | head -n 1
}
# start_daemon <log> [flags...]: boot cachemapd on an ephemeral port with
# its log in <log>, then wait until it has logged its bound address and
# answers /healthz. Sets daemon_pid, daemon_log and addr.
start_daemon() {
	daemon_log=$1
	shift
	"$tmp/cachemapd" -addr 127.0.0.1:0 "$@" 2>"$daemon_log" &
	daemon_pid=$!
	addr=
	i=0
	until [ -n "$addr" ] && curl -fsS -o /dev/null "http://$addr/healthz" 2>/dev/null; do
		i=$((i + 1))
		if [ "$i" -gt 100 ]; then
			echo "cachemapd $* never came up (listen address: ${addr:-none}):" >&2
			cat "$daemon_log" >&2
			exit 1
		fi
		sleep 0.1
		addr=$(parse_addr "$daemon_log" listening)
	done
}
# stop_daemon [signal]: stop the running daemon (SIGTERM by default) and
# reap it.
stop_daemon() {
	kill -s "${1:-TERM}" "$daemon_pid"
	wait "$daemon_pid" 2>/dev/null || true
	daemon_pid=
}
# ccurl: curl that dumps the daemon log on any failure, so a CI break
# shows the server side, not just an opaque exit code.
ccurl() {
	if ! curl -fsS "$@"; then
		echo "curl $* failed; daemon log:" >&2
		cat "$daemon_log" >&2
		exit 1
	fi
}

start_daemon "$tmp/daemon.log" -debug-addr 127.0.0.1:0 -mutex-fraction 5 -slow 1us
debug_addr=$(parse_addr "$tmp/daemon.log" '"pprof listening"')
if [ -z "$debug_addr" ]; then
	echo "cachemapd never logged its pprof address" >&2
	cat "$tmp/daemon.log" >&2
	exit 1
fi

trace_id=4bf92f3577b34da6a3ce929d0e0e4736
ccurl -D "$tmp/headers" -o "$tmp/plan.json" \
	-H "traceparent: 00-${trace_id}-00f067aa0ba902b7-01" \
	-H 'Content-Type: application/json' \
	-d '{"workload":{"synth":{"name":"ci","passes":2,"extent":256,"streams":[{"stride":1}]}},"topology":"2/4/8@16,8,4","scheme":"inter"}' \
	"http://$addr/v1/map"
grep -i "x-trace-id: ${trace_id}" "$tmp/headers" >/dev/null || {
	echo "X-Trace-Id does not echo the caller trace ID" >&2
	cat "$tmp/headers" >&2
	exit 1
}
ccurl -o "$tmp/traces.json" "http://$addr/debug/traces"
grep "$trace_id" "$tmp/traces.json" >/dev/null || {
	echo "trace $trace_id missing from /debug/traces" >&2
	exit 1
}
ccurl -o "$tmp/chrome.json" "http://$addr/debug/traces/$trace_id"
grep '"ph":"X"' "$tmp/chrome.json" >/dev/null || {
	echo "Chrome export for $trace_id has no complete events" >&2
	exit 1
}
ccurl -o /dev/null "http://$debug_addr/debug/pprof/cmdline"
grep "slow request" "$tmp/daemon.log" >/dev/null || {
	echo "no slow-request log line despite -slow 1us" >&2
	cat "$tmp/daemon.log" >&2
	exit 1
}
stop_daemon

echo "==> batch + incremental re-planning smoke (one pipeline-prefix run per family)"
# A batch of 8 specs of one workload family — same program, topologies
# wobbling within the repair tolerance of the leader's 2/4/8@16,8,4 — must
# run the expensive pipeline prefix exactly once: the leader computes in
# full, six near-miss siblings repair its clustering, and the duplicate of
# the leader is a plain cache hit. The stage counters prove it: tags and
# similarity ran once for the whole batch.
start_daemon "$tmp/daemon.log" -repair
batch_reqs=
for topo in '2/4/8@16,8,4' '2/4/8@16,8,5' '2/4/8@16,8,3' '2/4/8@16,9,4' \
	'2/4/8@16,7,4' '2/4/8@14,8,4' '2/4/10@16,8,4' '2/4/8@16,8,4'; do
	batch_reqs="$batch_reqs{\"workload\":{\"synth\":{\"name\":\"batch-ci\",\"passes\":2,\"extent\":256,\"streams\":[{\"stride\":1}]}},\"topology\":\"$topo\",\"scheme\":\"inter\"},"
done
ccurl -o "$tmp/batch.json" -H 'Content-Type: application/json' \
	-d "{\"requests\":[${batch_reqs%,}]}" "http://$addr/v1/map/batch"
for want in '"families":1' '"full":1' '"incremental":6' '"cached":1' '"errors":0' \
	'"replanned":"incremental"' '"reused_stages":["tags","chunks","similarity","cluster"]'; do
	grep -F "$want" "$tmp/batch.json" >/dev/null || {
		echo "batch response lacks $want:" >&2
		cat "$tmp/batch.json" >&2
		exit 1
	}
done
for stage in tags similarity; do
	runs=$(ccurl "http://$addr/metrics" | sed -n "s/^cachemapd_pipeline_stage_runs_total{stage=\"$stage\"} //p")
	if [ "${runs:-0}" != "1" ]; then
		echo "stage $stage ran ${runs:-0} times for an 8-spec single-family batch (want 1)" >&2
		cat "$tmp/daemon.log" >&2
		exit 1
	fi
done
# Drift mode end to end: a wobbling-topology stream against the same
# -repair daemon must report its full/incremental mix and record repairs.
"$tmp/loadgen" -drift 0.2 -base "http://$addr" -n 80 -c 8 -specs 4 >"$tmp/drift.out" 2>&1 || {
	echo "loadgen -drift failed:" >&2
	cat "$tmp/drift.out" >&2
	cat "$tmp/daemon.log" >&2
	exit 1
}
grep 'replanned:' "$tmp/drift.out" >/dev/null || {
	echo "loadgen -drift printed no replan mix:" >&2
	cat "$tmp/drift.out" >&2
	exit 1
}
incr=$(ccurl "http://$addr/metrics" | sed -n 's/^cachemapd_replan_total{outcome="incremental"} //p')
if [ "${incr:-0}" -lt 7 ]; then
	echo "cachemapd_replan_total{outcome=incremental} = ${incr:-0} after batch + drift run (want >= 7)" >&2
	cat "$tmp/daemon.log" >&2
	exit 1
fi
stop_daemon

echo "==> overload & chaos smoke (admission control, degraded serving, fault injection)"
# A deliberately overloadable daemon: 2 workers, a tiny admission queue,
# degraded serving on, and the deterministic fault injector armed. The
# chaos client floods it and fails on any outcome outside the overload
# contract (non-429/503/504 errors) or an unbounded p99.
start_daemon "$tmp/daemon.log" -workers 2 -queue 8 -timeout 5s \
	-degraded -faults 'latency:pipeline/tags:0.1:20ms;error:pipeline/cluster:0.05;crash:plancache/leader:0.05' \
	-fault-seed 42
"$tmp/loadgen" -chaos -base "http://$addr" -n 200 -c 16 -p99-budget 30s || {
	echo "chaos run failed; daemon log:" >&2
	cat "$tmp/daemon.log" >&2
	exit 1
}
# The injector must actually have fired during the run, or the chaos pass
# proves nothing about fault handling.
ccurl -o "$tmp/faults.json" "http://$addr/debug/faults"
grep -E '"fired":[1-9]' "$tmp/faults.json" >/dev/null || {
	echo "no fault fired during the chaos run:" >&2
	cat "$tmp/faults.json" >&2
	exit 1
}
stop_daemon

echo "==> plan-quality telemetry smoke (shadow sampling, wide events, exemplars)"
# A -repair daemon sampling every served plan: a drifting load must leave a
# ledger with at least two serve modes carrying finite miss rates, wide
# events backfilled with quality verdicts, and a request-duration exemplar
# whose trace ID resolves in /debug/traces/{id}.
start_daemon "$tmp/daemon.log" -repair -quality-sample 1.0 -log-sample 0.1
"$tmp/loadgen" -drift 0.2 -base "http://$addr" -n 80 -c 8 -specs 4 -quality >"$tmp/quality.out" 2>&1 || {
	echo "loadgen -drift -quality failed:" >&2
	cat "$tmp/quality.out" >&2
	cat "$tmp/daemon.log" >&2
	exit 1
}
grep '^quality:' "$tmp/quality.out" >/dev/null || {
	echo "loadgen -quality printed no quality summary:" >&2
	cat "$tmp/quality.out" >&2
	exit 1
}
# The sampler runs off the request path, so give the ledger a moment to
# absorb the tail of the run, then require >= 2 serve modes with finite
# (non-empty numeric) miss-rate windows.
i=0
modes=0
while [ "$modes" -lt 2 ]; do
	ccurl -o "$tmp/quality.json" "http://$addr/debug/quality"
	modes=$(grep -o '"\(full\|cached\|incremental\|degraded_stale\|degraded_fallback\)":{"samples"' "$tmp/quality.json" | sort -u | wc -l)
	i=$((i + 1))
	if [ "$i" -gt 50 ]; then
		echo "/debug/quality never showed two serve modes (got $modes):" >&2
		cat "$tmp/quality.json" >&2
		exit 1
	fi
	[ "$modes" -ge 2 ] || sleep 0.1
done
grep '"miss_rates":\[0\.\?[0-9]*' "$tmp/quality.json" >/dev/null || {
	echo "/debug/quality carries no finite miss rates:" >&2
	cat "$tmp/quality.json" >&2
	exit 1
}
# Wide events: the ring must hold sampled events with backfilled verdicts.
ccurl -o "$tmp/events.json" "http://$addr/debug/events?limit=50"
grep '"quality_sampled":true' "$tmp/events.json" >/dev/null || {
	echo "/debug/events holds no shadow-sampled events:" >&2
	head -c 2000 "$tmp/events.json" >&2
	exit 1
}
# Exemplars: the request-duration histogram links a bucket to a trace the
# daemon still retains.
ex_trace=$(ccurl "http://$addr/metrics" |
	sed -n 's/^cachemapd_request_duration_seconds_bucket.* # {trace_id="\([0-9a-f]*\)"}.*/\1/p' | head -n 1)
if [ -z "$ex_trace" ]; then
	echo "no exemplar on cachemapd_request_duration_seconds" >&2
	exit 1
fi
ccurl -o "$tmp/exemplar-trace.json" "http://$addr/debug/traces/$ex_trace"
grep '"ph":"X"' "$tmp/exemplar-trace.json" >/dev/null || {
	echo "exemplar trace $ex_trace did not resolve to a renderable trace" >&2
	exit 1
}
# -log-sample 0.1 must thin the access log well below one line per request.
req_lines=$(grep -c 'msg=request' "$tmp/daemon.log" || true)
if [ "${req_lines:-0}" -gt 60 ]; then
	echo "access log has $req_lines request lines for ~88 requests despite -log-sample 0.1" >&2
	exit 1
fi
stop_daemon
echo "quality smoke: $modes serve modes in the ledger; exemplar trace $ex_trace resolved; $req_lines sampled access-log lines"

echo "==> kill/restart persistence smoke (warm start, torn-tail recovery, snapshot)"
# The ROADMAP's warm-start proof: a daemon with a persistent plan store is
# kill -9'd after serving, its log tail is deliberately torn mid-record
# (the crash-during-write case), and the restarted daemon must (a) skip
# the torn record with the counter observed, (b) serve the surviving spec
# as a cache hit with zero pipeline computes, and (c) emit a compacted
# snapshot on demand.
store_dir="$tmp/planstore"
start_daemon "$tmp/daemon.log" -store-dir "$store_dir"
persist_spec='{"workload":{"synth":{"name":"persist-ci","passes":2,"extent":256,"streams":[{"stride":1}]}},"topology":"2/4/8@16,8,4","scheme":"inter"}'
tail_spec='{"workload":{"synth":{"name":"persist-ci","passes":2,"extent":256,"streams":[{"stride":1}]}},"topology":"2/4/8@16,8,5","scheme":"inter"}'
ccurl -o "$tmp/persist1.json" -H 'Content-Type: application/json' \
	-d "$persist_spec" "http://$addr/v1/map"
grep '"cached":false' "$tmp/persist1.json" >/dev/null || {
	echo "first serve of the persist spec was not a cold compute:" >&2
	cat "$tmp/persist1.json" >&2
	exit 1
}
# A second spec appends a second record: tearing the log tail later must
# destroy only this one, leaving the first spec's record intact.
ccurl -o /dev/null -H 'Content-Type: application/json' \
	-d "$tail_spec" "http://$addr/v1/map"
# The disk writes ride a write-behind queue; wait for both records to land
# before the kill, or the test would measure the queue, not the log.
i=0
records=0
while [ "${records:-0}" -lt 2 ]; do
	records=$(ccurl "http://$addr/metrics" | sed -n 's/^cachemapd_planstore_records //p')
	i=$((i + 1))
	if [ "$i" -gt 50 ]; then
		echo "plan store never reached 2 records (got ${records:-0})" >&2
		cat "$tmp/daemon.log" >&2
		exit 1
	fi
	[ "${records:-0}" -ge 2 ] || sleep 0.1
done
stop_daemon KILL
# Tear the log mid-record: drop the last 17 bytes, slicing into the second
# spec's record — a crash during its append.
log_size=$(wc -c <"$store_dir/plans.log")
truncate -s $((log_size - 17)) "$store_dir/plans.log"

start_daemon "$tmp/daemon2.log" -store-dir "$store_dir"
skipped=$(ccurl "http://$addr/metrics" | sed -n 's/^cachemapd_planstore_skipped_records_total //p')
if [ "${skipped:-0}" -lt 1 ]; then
	echo "torn log tail not skipped: cachemapd_planstore_skipped_records_total = ${skipped:-0}" >&2
	cat "$tmp/daemon2.log" >&2
	exit 1
fi
warm=$(ccurl "http://$addr/metrics" | sed -n 's/^cachemapd_planstore_warm_records //p')
if [ "${warm:-0}" -lt 1 ]; then
	echo "restart warm-scanned ${warm:-0} records (want >= 1)" >&2
	cat "$tmp/daemon2.log" >&2
	exit 1
fi
ccurl -o "$tmp/persist2.json" -H 'Content-Type: application/json' \
	-d "$persist_spec" "http://$addr/v1/map"
grep '"cached":true' "$tmp/persist2.json" >/dev/null || {
	echo "restarted daemon did not serve the persisted spec as a hit:" >&2
	cat "$tmp/persist2.json" >&2
	cat "$tmp/daemon2.log" >&2
	exit 1
}
computes=$(ccurl "http://$addr/metrics" | sed -n 's/^cachemapd_pipeline_computes_total //p')
if [ "${computes:-0}" != "0" ]; then
	echo "restarted daemon ran ${computes:-0} pipeline computes serving a persisted spec (want 0)" >&2
	cat "$tmp/daemon2.log" >&2
	exit 1
fi
# The served plans must be byte-identical across the restart.
pre=$(sed -n 's/.*"plan":\(.*\),"stages".*/\1/p' "$tmp/persist1.json")
post=$(sed -n 's/.*"plan":\(.*\),"stages".*/\1/p' "$tmp/persist2.json")
if [ -z "$pre" ] || [ "$pre" != "$post" ]; then
	echo "plan served after restart differs from the one computed before it" >&2
	exit 1
fi
# Snapshot: POST compacts the log in place; the GET stats reflect it.
ccurl -o "$tmp/snapshot.json" -X POST "http://$addr/debug/cache/snapshot"
grep '"compacted":true' "$tmp/snapshot.json" >/dev/null || {
	echo "POST /debug/cache/snapshot did not compact:" >&2
	cat "$tmp/snapshot.json" >&2
	exit 1
}
stop_daemon
echo "persist smoke: torn tail skipped ($skipped), $warm records warm-scanned, hit served with 0 computes"

echo "==> ci ok"
