#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it, passing
# every argument through. Run from the repository root:
#
#   bash fambench/run.sh --workload cold_1m --seed 1 --seconds 25 --trace 0
#
# Build outputs, the Go build cache, the compiler's temporary files and
# span files stay under .bench_build/ in the repository root; the Go
# proxy is off, so the build never reaches the network.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" GOENV=off \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd fambench && go build -o "$out/fambench" .)
exec "$out/fambench" "$@"
