#!/usr/bin/env bash
# Builds the benchmark from the checkout's source and runs it. Run from
# the repository root:
#
#   bash perfbench/run.sh --workload serve-cold --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the binary, Go's build cache and temporary files, the
# per-run scratch data, traces and saved results.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOPROXY=off GOTELEMETRY=off

go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
