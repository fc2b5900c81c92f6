#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. Builds the benchmark runner from
# source into .bench_build/ at the repository root and executes it with
# the caller's arguments. Every file the toolchain and the children
# write (build cache, temporary files and the go command's telemetry
# counters included) stays under .bench_build/, so a run touches nothing
# outside the checkout.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath"
export TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off GOWORK=off
go build -C "$here" -o "$out/bin/bench" .
exec "$out/bin/bench" "$@"
