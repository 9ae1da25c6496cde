#!/usr/bin/env bash
# Builds the end-to-end benchmark from this checkout and runs it, passing
# every argument through, e.g. from the repository root:
#
#   bash benchmarks/e2e/run.sh --workload fig8 --seed 7 --seconds 12 --trace 0
#
# The Go toolchain's caches and temporary files go to .bench_build/ at the
# repository root and results to benchmarks/e2e/out/, so nothing is written
# outside the checkout. The build never fetches modules.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
build="$here/../../.bench_build"
mkdir -p "$build"
build=$(cd "$build" && pwd)
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" TMPDIR="$build/tmp"
export GOPROXY=off GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
cd "$here"
go build -o "$build/e2e" .
exec "$build/e2e" "$@"
