#!/usr/bin/env bash
# Builds the benchmark harness from source and runs it with the given
# arguments, from the root of a checkout:
#
#   bash bench/run.sh --workload loop --seed 1 --seconds 20 --trace 0
#
# Everything it writes stays inside the checkout: the Go build cache and
# the binary under .bench_build/, span files under bench/out/.
set -euo pipefail
bench="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$bench")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
# Cache, scratch files and the go command's own bookkeeping all live
# under .bench_build; nothing is downloaded.
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" GOWORK=off GOTOOLCHAIN=local GOFLAGS=-mod=readonly
go build -C "$bench" -o "$build/spine" ./spine
cd "$root"
exec "$build/spine" "$@"
