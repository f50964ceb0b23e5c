#!/usr/bin/env bash
# Builds the frame-service benchmark from source and runs it from the
# repository root, passing every argument through:
#
#   bash framebench/run.sh --workload walk_warm --seed 1 --seconds 10 --trace 0
#
# Build output, the Go build cache, spans and run history stay in
# .bench_build/ under the repository root.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gomodcache"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomodcache"
(cd "$root/framebench" && go build -o "$out/framebench" .)
cd "$root"
exec "$out/framebench" "$@"
