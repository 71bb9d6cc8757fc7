#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root;
# every argument is passed to the program:
#
#   bash bench/run.sh --workload gray-n9 --seed 1 --seconds 10 --trace 0
#
# The build's cache and binary live in .bench_build/ at the root, so nothing
# is written outside the checkout. Without the repository's sources next to
# bench/ the build fails and the script exits non-zero.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOMAXPROCS=2

(cd "$root/bench" && go build -o "$out/bench" .)
cd "$root"
exec "$out/bench" "$@"
