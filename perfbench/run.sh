#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it:
#   bash perfbench/run.sh --workload paper-sweep --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh --selftest
# Run it from the repository root. Every build artifact, cache and
# temporary file stays under .bench_build/ in the current directory.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/mod" \
	GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	GOPROXY=off GOTOOLCHAIN=local GOTELEMETRY=off
(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
