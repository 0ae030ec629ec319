#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the repository
# root and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload hot-narrow --seed 1 --seconds 10 --trace 0
#
# Every build artefact and cache (Go build cache, GOPATH, toolchain
# config) stays inside .bench_build/, so the run writes nothing outside
# the checkout.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off CGO_ENABLED=0
commit="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
(cd "$root/perfbench" && go build -buildvcs=false -o "$out/perfbench" .)
PERFBENCH_COMMIT="$commit" exec "$out/perfbench" "$@"
