#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments. Everything the build writes (Go build cache, module
# cache, the binary) stays under .bench_build/ in the checkout; run from
# the root of the repository.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOPATH="$build/gopath" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
go build -o "$build/bench" ./bench
exec "$build/bench" "$@"
