#!/usr/bin/env bash
# The BENCHMARK.json command: build loadgen from source and run it with the
# driver's arguments (--workload W --seed N --seconds S --trace 0|1).
# Everything built or written stays under .bench_build in the checkout,
# Go's build cache and temporary files included.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build=$root/.bench_build
mkdir -p "$build/gotmp"
export GOCACHE=$build/gocache GOTMPDIR=$build/gotmp GOFLAGS=-buildvcs=false
(cd "$root/cmd/loadgen" && go build -o "$build/bin/loadgen" .)
exec "$build/bin/loadgen" -root "$root" "$@"
