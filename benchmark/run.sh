#!/usr/bin/env bash
# Builds the benchmark from source into <checkout>/.bench_build and runs it
# with the given arguments. Everything the build and the run write (the Go
# build cache included) stays under that directory.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTOOLCHAIN=local GOPROXY=off
(cd "$here" && go build -o "$out/benchmark" .)
cd "$root"
exec "$out/benchmark" -scratch "$out" "$@"
