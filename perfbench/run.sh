#!/usr/bin/env bash
# Builds the benchmark harness from this checkout and runs one workload:
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run it from the root of a checkout. The binary, the Go build cache and
# the stores the workloads write all stay inside the checkout: build
# outputs under $CARGO_TARGET_DIR (default .bench_build), stores and span
# files under .perfbench. The last line of standard output is the result
# as one JSON object.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOFLAGS= GOWORK=off
export XDG_CONFIG_HOME="$out/config"

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
