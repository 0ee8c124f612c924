#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it; every
# argument passes through. Run it from the repository root:
#
#   bash perfbench/run.sh --workload dense-hybrid --seed 1 --seconds 20 --trace 0
#
# The build cache, temporary files, the go command's configuration
# directory (where it keeps telemetry counters) and the binary stay in
# .bench_build at the repository root; nothing is fetched over the network.
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go -C perfbench build -o "$out/perfbench-bin" .
exec "$out/perfbench-bin" "$@"
