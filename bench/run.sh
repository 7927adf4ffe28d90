#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it with the given
# arguments, from the checkout root:
#
#   bash bench/run.sh --workload wavefront --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write stays under .bench_build: the
# binary, the Go build cache, temporary files and the traced run's
# artifacts. The build needs the repository's own go.mod one directory up,
# so in a directory holding only bench/ it fails, and so does this script.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off
go -C "$(dirname "$0")" build -o "$out/bench" .
exec "$out/bench" "$@"
