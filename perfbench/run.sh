#!/usr/bin/env bash
# Builds perfbench from source inside the checkout and runs it with the
# given arguments, from the repository root:
#
#   bash perfbench/run.sh --workload smp-server --seed 1 --seconds 15 --trace 0
#
# Everything it builds or writes stays under .bench_build/. The build
# needs the repository's own module one directory up; without it the
# build fails and the script exits non-zero without printing a result.
set -euo pipefail

out="$PWD/.bench_build"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
