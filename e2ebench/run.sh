#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it:
#
#   bash e2ebench/run.sh --workload pipgen --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. The binary, the Go build cache and the
# traced-run outputs all go under .bench_build/ in the current directory,
# so nothing is read or written outside the checkout.
set -euo pipefail

root=$(pwd)
bench_dir=$(cd "$(dirname "$0")" && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS=

(cd "$bench_dir" && go build -o "$build/e2ebench" .)
exec "$build/e2ebench" --out "$build/trace" "$@"
