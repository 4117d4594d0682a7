#!/usr/bin/env bash
# Builds kvbench from source and runs it with the given flags. Run it
# from the repository root, e.g.
#   bash kvbench/run.sh --workload inproc-write --seed 1 --seconds 10 --trace 0
# The binary, Go's build cache and its temporary files all live in the
# build directory ($CARGO_TARGET_DIR, default .bench_build), so nothing
# is written outside the checkout.
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/gocache" "$out/gotmp"
export GOCACHE=$out/gocache GOTMPDIR=$out/gotmp GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOPROXY=off GOWORK=off
(cd kvbench && go build -o "$out/kvbench" .)
exec "$out/kvbench" "$@"
