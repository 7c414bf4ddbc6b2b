#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root,
# passing every argument through, e.g.
#
#   bash bench/run.sh --workload darknet --seed 1 --seconds 20 --trace 0
#
# The build cache, temporary build files and the binary stay under
# .bench_build/ in the repository, and nothing is fetched: the module
# depends only on the repository itself.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOENV=off

go -C "$root/bench" build -o "$out/vxbench" .
cd "$root"
exec "$out/vxbench" "$@"
