#!/usr/bin/env bash
# Builds the benchmark from source and runs it; arguments pass through:
#   bash perfbench/run.sh --workload trace-open --seed 1 --seconds 30 --trace 0
# Run from the repository root. Everything the build and the runs leave
# behind (Go build cache, binary, journals, span files) stays under
# .bench_build in the current directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOENV=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
