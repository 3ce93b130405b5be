#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Everything the build leaves behind — the binary, Go's build cache — stays
# in .bench_build at the root of the checkout, so a run reads and writes
# nothing outside the checkout, and a checkout without the repository's
# sources fails here, before anything is measured.
set -euo pipefail
cd "$(dirname "$0")"
build="$(cd .. && pwd)/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOWORK=off
go build -o "$build/xsltbench" .
exec "$build/xsltbench" "$@"
