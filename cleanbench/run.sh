#!/usr/bin/env bash
# Builds the cleandb benchmark from the checkout it is run in and runs it:
#
#   bash cleanbench/run.sh --workload clean_batch --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. Every build product, cache and temporary
# file stays under .bench_build in that root. Build output goes to standard
# error, so the last line of standard output is the benchmark's result.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/gopath" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOFLAGS="-mod=mod -buildvcs=false" GOWORK=off GOPROXY=off

(cd "$root/cleanbench" && go build -o "$build/cleanbench" .) >&2
exec "$build/cleanbench" "$@"
