#!/usr/bin/env bash
# Builds the repository benchmark from this checkout's sources and runs it.
#
#   bash benchmark/run.sh --workload resident-btree --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Every build artifact (the Go build cache
# included) stays under .bench_build/ in the checkout; the toolchain is
# never downloaded and no module is fetched.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd "$root/benchmark" && go build -o "$build/spfbenchmark" .) >&2
cd "$root"
exec "$build/spfbenchmark" "$@"
