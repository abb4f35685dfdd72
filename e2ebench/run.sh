#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs one workload.
#
#   bash e2ebench/run.sh --workload table1 --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Every build and run artifact (Go build
# cache, binary, campaign directories, span files) stays under
# .bench_build/ in the current directory.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/gopath" "$build/config"

export GOCACHE="$build/gocache"
export GOTMPDIR="$build/gotmp"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export GOFLAGS=-mod=mod
export GOPROXY=off
export GOSUMDB=off
export GOTOOLCHAIN=local
export GOENV=off
export XDG_CONFIG_HOME="$build/config" # the go command's telemetry counters

(cd "$here" && go build -o "$build/e2ebench/e2ebench" .)
exec "$build/e2ebench/e2ebench" --out "$build/e2ebench" "$@"
