#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the checkout root
# and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload pair_llc --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. The Go build cache lives in .bench_build/
# too, so the benchmark reads and writes nothing outside the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOENV=off GOTOOLCHAIN=local GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/caer-perfbench" .)
exec "$out/caer-perfbench" "$@"
