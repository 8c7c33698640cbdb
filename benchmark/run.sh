#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it.
# Everything it writes — Go's build cache, module path and telemetry
# counters, the binary, temp stores — stays under .bench_build in the
# current directory, which must be the repository root (the benchmark
# module's replace directive points at ../).
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local TMPDIR="$build/tmp"
go build -C benchmark -o "$build/lscr-benchmark" .
exec "$build/lscr-benchmark" "$@"
