#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments, from the root of the checkout:
#
#   bash ramsisbench/run.sh --workload image-live --seed 1 --seconds 25 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout (Go's build cache included). The benchmark is its own module,
# which imports the program's packages from the parent directory, so the
# build fails, and this script exits non-zero, when the program's sources
# are not there.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
# Go's build cache, temporary files, module path and its per-user config
# (where the go command keeps telemetry counters) all go under $out.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS=-mod=mod GOWORK=off
(cd "$root/ramsisbench" && go build -o "$out/ramsisbench" .) >&2
exec "$out/ramsisbench" "$@"
