#!/bin/sh
# Builds the benchmark from this checkout and runs it:
#   sh perfbench/run.sh --workload cold-read --seed 1 --seconds 25 --trace 0
# Run from the repository root. Build cache, binary and run outputs stay
# under .bench_build/ in the checkout.
set -eu
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/cache"
export GOFLAGS=-buildvcs=false GOWORK=off GOPROXY=off GOTOOLCHAIN=local
(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" "$@"
