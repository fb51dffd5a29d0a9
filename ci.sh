#!/bin/sh
# Lightweight CI, the tier-1 gate: formatting, build, vet (of this module
# and of the perfbench benchmark module), the inlining check of balance's
# hot keys, linters, race-enabled tests, the short-mode
# reproduction-fidelity gate, the zero-alloc gate, short balance, merge,
# schedule, plan-log, plan-wire, map-request, JSON-validator, plan-JSON and
# tag fuzz runs and the bench regression gate.
# The race-enabled tests include cmd/cachemapd's process tests, which boot
# the real daemon: tracing, batch repair, overload/chaos, quality
# telemetry, kill/restart persistence, drain, flag checks and the 3-node
# ring. Run by .github/workflows/ci.yml and locally as ./ci.sh (or
# `make ci`); the workflow's race-stress job also reruns the
# concurrency-heavy packages twice under -race: internal/core for the
# subtree fan-out, the sharded similarity pass and the Figure 15 I/O
# groups, internal/tags for the tag shards, internal/join, the fan-out
# every one of them runs on, and internal/metrics, whose label families
# every request updates while /metrics scrapes them.
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

# perfbench is its own module, so `go build ./...` above never compiles
# it; vetting it type-checks every API the benchmark drives
# (pipeline.State, core.PhaseClock, Server.ComputePlan, ...) now rather
# than at the next benchmark run. Read-only: it writes nothing under
# perfbench/.
echo "==> (cd perfbench && go vet ./...)"
(cd perfbench && go vet ./...)

# memberKey and (*Cluster).firstIter order balance's members and clusters
# on every round. They inline only while internal/core imports
# internal/itset itself (see distribute.go's imports); without that,
# BenchmarkPipelineParallelism's balance-ms/op read about a sixth higher.
echo "==> inlining of balance's keys (go build -gcflags=-m ./internal/core)"
inl=$(go build -gcflags=-m ./internal/core 2>&1)
for fn in 'memberKey' '(*Cluster).firstIter'; do
	if ! printf '%s\n' "$inl" | grep -qF ": can inline $fn"; then
		echo "inlining: $fn no longer inlines in internal/core" >&2
		exit 1
	fi
done

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
# The pooled hot paths — posting-index build, bump carving, warm
# sparse pair generation, the full distribution run, the plan-cache hit
# serve path, tagging the cold_plan shape, encoding its assignment and
# writing its plan's JSON — the JSON validator every disk hit runs over its
# plan, and the metrics instruments every request updates must stay
# allocation-free (or at their documented small constants) once warm. GOGC=off pins sync.Pool contents
# for the whole run, so a GC-timed pool eviction can never fake a
# regression.
GOGC=off go test -short -count=1 -run 'TestAlloc' . ./internal/core ./internal/bitvec ./internal/tags ./internal/mapping ./internal/pipeline ./internal/metrics ./internal/server

echo "==> balance fuzz (FuzzBalanceMatchesReference, 15s)"
# Plain `go test` above already replays the seed corpus and any committed
# crasher under internal/core/testdata/fuzz; this explores new shapes
# against the reference balance loop for a short, fixed time. Every fuzz
# step bounds Go's input minimizer to 100 runs per new input: unbounded,
# it can spend most of a fixed -fuzztime minimizing while reporting no
# execs.
go test -run '^$' -fuzz '^FuzzBalanceMatchesReference$' -fuzztime 15s -fuzzminimizetime 100x ./internal/core

echo "==> merge fuzz (FuzzMergeMatchesReference, 10s)"
# The same for the merge queue (the seed run in pop order plus the dot
# buckets of pushed entries) against the dense reference merge.
go test -run '^$' -fuzz '^FuzzMergeMatchesReference$' -fuzztime 10s -fuzzminimizetime 100x ./internal/core

echo "==> schedule fuzz (FuzzScheduleMatchesReference, 10s)"
# The same for the Figure 15 schedule, which scores candidates by looking
# their set bits up in dense views, against the reference schedule's
# full-width AndPopCounts.
go test -run '^$' -fuzz '^FuzzScheduleMatchesReference$' -fuzztime 10s -fuzzminimizetime 100x ./internal/core

echo "==> plan-log fuzz (FuzzPlanstoreRecord, 10s)"
# The plan store's startup scan reads whatever bytes are on disk: arbitrary
# logs must open without a panic or an error, cut to the records that
# verify, and reopen to the same entries. A crasher lands in
# internal/planstore/testdata/fuzz.
go test -run '^$' -fuzz '^FuzzPlanstoreRecord$' -fuzztime 10s -fuzzminimizetime 100x ./internal/planstore

echo "==> plan-wire fuzz (FuzzPlanWire, 10s)"
# The two places a plan arrives from outside the process: arbitrary bytes
# go to the plan-log codec's Decode and to the peer-fill check. Neither may
# panic, an accepted record must splice into a valid /v1/map body, and an
# accepted fill must map each of its job's iterations exactly once. A
# crasher lands in internal/server/testdata/fuzz.
go test -run '^$' -fuzz '^FuzzPlanWire$' -fuzztime 10s -fuzzminimizetime 100x ./internal/server

echo "==> map-request fuzz (FuzzMapRequest, 10s)"
# Typed arguments build a size-capped /v1/map request (an app, synth or
# stencil workload, a 2-4 layer topology, the scheme, balance threshold,
# alpha, beta and dependence mode) and send it through the handler: every
# answer must be a plan or a 4xx/504, never a 500 or a recovered panic. A
# crasher lands in internal/server/testdata/fuzz.
go test -run '^$' -fuzz '^FuzzMapRequest$' -fuzztime 10s -fuzzminimizetime 100x ./internal/server

echo "==> JSON-validator fuzz (FuzzJSONValueEnd, 10s)"
# The one-pass validator that checks and delimits the plan of every
# plan-log record a disk hit reads, against json.Valid, its reference: on
# arbitrary bytes it must find a whole value exactly when json.Valid
# accepts them. A crasher lands in internal/server/testdata/fuzz.
go test -run '^$' -fuzz '^FuzzJSONValueEnd$' -fuzztime 10s -fuzzminimizetime 100x ./internal/server

echo "==> plan-JSON fuzz (FuzzPlanJSON, 10s)"
# The writer every computed, repaired and fallback plan goes through,
# mapping.AppendJSON, against json.Marshal(mapping.PlanOf(r)) on random
# results: 0–8 clients, runs with any int64 bounds, nil, empty and full
# explicit lists, zero and non-zero chunk and edge counts, and scheme
# names that need escaping. A crasher lands in
# internal/mapping/testdata/fuzz.
go test -run '^$' -fuzz '^FuzzPlanJSON$' -fuzztime 10s -fuzzminimizetime 100x ./internal/mapping

echo "==> tag fuzz (FuzzTagsMatchEnumeration, 10s)"
# The segment tagger, cut into 1, 2 or 5 shards, against the per-iteration
# enumerator it replaced, on random nests (negative bounds, guards, Mod and
# Table subscripts, clamping at both array ends, element sizes that do not
# divide the chunk) and on the paper's programs. A crasher lands in
# internal/tags/testdata/fuzz.
go test -run '^$' -fuzz '^FuzzTagsMatchEnumeration$' -fuzztime 10s -fuzzminimizetime 100x ./internal/tags

echo "==> bench regression gate (vs BENCH.json)"
# Short mode: fixed iteration counts keep this quick; three samples per
# benchmark are folded to their minimum by benchjson (interference only
# slows a run down), and the 100% tolerance absorbs shared-runner noise —
# observed minute-to-minute drift on 1-CPU CI boxes reaches +80% with no
# code change — while still catching the order-of-magnitude regressions
# the ledger exists to prevent (dense-similarity fallback at ~+470%,
# O(n^2) relapses).
#
# -benchmem arms the allocation side of the gate: the ledger's B/op and
# allocs/op entries are compared under the tighter -alloc-tolerance
# (allocation counts are near-deterministic; 25% absorbs sync.Pool
# eviction jitter while catching a pooled path regressing to per-call
# allocation). The ledger's BenchmarkDistribute entry records the sub-1ms
# steady state this gate anchors to; BenchmarkWarmScan keeps the plan
# store's startup scan an O(records) streaming read, and
# BenchmarkDiskHitServe's allocs/op keep a disk hit from decoding the
# plan it serves. BenchmarkPlanEncode writes the cold plan shape's JSON
# with mapping.AppendJSON; its zero allocs/op are exact, so a writer that
# falls back to building a mapping.Plan fails the gate.
# BenchmarkPlanRecordDecode splits cache_hits-shaped plan-log records with
# the one-pass validator: a return to encoding/json's split reads about
# 3.5x its row, which this tolerance fails, while BenchmarkDiskHitServe,
# where the split is a fifth of a request, would not show it.
# BenchmarkFineChunks keeps the balance and schedule stages of sar and
# e_elem at 1 KB chunks (four times the data chunks of the default) from
# growing back toward their dense-tag cost. Its balance-ms/op rows were
# recorded with a donor's first round scanned: a return to an index built
# for every donor reads +40–110% against them, which the verdict shows
# but this tolerance does not yet fail.
#
# BenchmarkPipelineParallelism runs 10 passes per sample: a one-pass
# sample's stage times move by a fifth with where a GC cycle lands, which
# hides a change of that size in its cluster-ms/op or balance-ms/op.
#
# BenchmarkReplanIncremental's speedup-floor is a hard lower bound
# (benchjson "-floor" semantics, which -tolerance does not soften):
# incremental re-planning must stay at least 5x faster than the full
# pipeline it short-circuits. Runner noise shrinks a measured speedup
# toward 1, never inflates it, so its samples fold by maximum, and the
# floor sits far below the ~100x+ measured on an idle machine.
#
# Every gated bench runs at -cpu 1, the CPU count the ledger was recorded
# at: go test appends "-N" to benchmark names when GOMAXPROCS is N > 1,
# which would match no ledger entry on a multi-core runner, and Workers
# follows GOMAXPROCS, which moves the allocation counts.
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
# Bench raw output and the comparison verdict land in BENCH_ARTIFACTS when
# CI sets it (uploaded as a workflow artifact on bench-gate failure);
# locally they stay in the run's temp dir.
bench_dir=${BENCH_ARTIFACTS:-$tmp}
mkdir -p "$bench_dir"
: >"$bench_dir/bench.out"
bench() {
	go test -run '^$' -count=3 -cpu 1 "$@" >>"$bench_dir/bench.out" 2>&1 || {
		cat "$bench_dir/bench.out" >&2
		exit 1
	}
}
bench -bench 'BenchmarkDistribute$|BenchmarkPostings$|BenchmarkCacheHitServe$|BenchmarkDiskHitServe$|BenchmarkPlanEncode$' -benchtime 100x -benchmem .
bench -bench 'BenchmarkPipelineParallelism' -benchtime 10x .
bench -bench 'BenchmarkReplanIncremental$' -benchtime 3x .
bench -bench 'BenchmarkFineChunks' -benchtime 3x .
bench -bench 'BenchmarkWarmScan$' -benchtime 5x -benchmem ./internal/planstore
bench -bench 'BenchmarkPlanRecordDecode$' -benchtime 400x -benchmem ./internal/server
go build -o "$tmp/benchjson" ./cmd/benchjson
if ! "$tmp/benchjson" -compare BENCH.json -tolerance 100 -alloc-tolerance 25 \
	<"$bench_dir/bench.out" >"$bench_dir/compare.txt" 2>&1; then
	echo "bench gate vs BENCH.json failed:" >&2
	cat "$bench_dir/compare.txt" >&2
	exit 1
fi

echo "==> ci ok"
