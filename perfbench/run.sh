#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run it from the root of a checkout:
#
#   bash perfbench/run.sh --workload sync-dense --seed 1 --seconds 24 --trace 0
#
# Everything the build writes stays under .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
# XDG_CONFIG_HOME keeps the go command's telemetry counters in the checkout.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
