#!/usr/bin/env bash
# Builds cachemapd and the perfbench load generator from this checkout, then runs
# one benchmark workload against the fresh build. Run from the repository
# root:
#
#   bash perfbench/run.sh --workload cold_plan --seed 1 --seconds 20 --trace 0
#
# Build products, the Go build cache, plan stores and span files all stay
# under .bench_build/ in the checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/cachemapd || ! -d internal ]]; then
	echo "perfbench: run from the repository root (no cachemapd sources here)" >&2
	exit 2
fi
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" GOENV=off GOTOOLCHAIN=local GOFLAGS= GOWORK=off
go build -o "$out/cachemapd" ./cmd/cachemapd >&2
(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -daemon "$out/cachemapd" -workdir "$out" "$@"
