#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload campaign-sweep --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Every build output, the Go build cache
# and the traced run's span files stay under .bench_build/ in the
# checkout; the build uses the local toolchain and needs no network.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" HOME="$out/home"
export GOTOOLCHAIN=local GOFLAGS=-buildvcs=false GOTELEMETRY=off GOPROXY=off

go -C "$root/perfbench" build -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"
