#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it with the
# given arguments, e.g.
#
#   bash benchsuite/run.sh --workload point-wb --seed 1 --seconds 10 --trace 0
#
# The build cache, the binary and everything a run writes stay under
# .bench_build/ at the root of the checkout; XDG_CONFIG_HOME keeps the go
# command's own files (telemetry counters, go env) there too.
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
go -C benchsuite build -o "$out/benchsuite" .
exec "$out/benchsuite" "$@"
