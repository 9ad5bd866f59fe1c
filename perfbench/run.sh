#!/usr/bin/env bash
# Builds the perfbench benchmark from source and runs it with the given
# arguments, e.g.
#
#	bash perfbench/run.sh --workload mesh-400 --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Everything it builds or writes stays under
# .bench_build/ there; it fails (and prints no result) when the repository's
# sources are not beside the benchmark.
set -euo pipefail

root=$(pwd)
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in /*) ;; *) build="$root/$build" ;; esac
mkdir -p "$build/home"

# Keep the Go toolchain's caches and config inside the checkout, and never
# let it reach for a network or a different toolchain.
export HOME="$build/home" XDG_CONFIG_HOME="$build/home" XDG_CACHE_HOME="$build/home"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOENV=off GOFLAGS= \
	GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOTELEMETRY=off

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" --out "$build/perfbench-out" "$@"
