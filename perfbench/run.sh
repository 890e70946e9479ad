#!/usr/bin/env bash
# Builds the benchmark from source in the checkout it is run from, then runs
# it with the given flags. Build caches and scratch output stay under
# .bench_build in the checkout.
#
#   bash perfbench/run.sh --workload suite-cold --seed 42 --seconds 12 --trace 0
set -euo pipefail
root=$(pwd)
build="$root/.bench_build/perfbench"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS=
go -C "$root/perfbench" build -o "$build/perfbench" .
exec "$build/perfbench" -out "$build" "$@"
