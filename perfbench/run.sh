#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root, e.g.
#
#   bash perfbench/run.sh --workload incast --seed 1 --seconds 20 --trace 0
#
# The Go build cache, module cache, temporary files, the binary, traces
# and the service's scratch stores all live under .bench_build/ in the
# working directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOTOOLCHAIN=local GOPROXY=off GOTELEMETRY=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
