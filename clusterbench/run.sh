#!/usr/bin/env bash
# Builds the cluster benchmark from the checkout it is run in and runs it.
# Run from the repository root:
#
#	bash clusterbench/run.sh --workload hot --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache and scratch space, Go's own config
# files, result logs and span files all stay under .bench_build/ in the
# current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off
if commit=$(git -C "$root" rev-parse --short=12 HEAD 2>/dev/null); then
	export CLUSTERBENCH_COMMIT="$commit"
fi
(cd "$root/clusterbench" && go build -o "$out/clusterbench" .)
exec "$out/clusterbench" --out "$out" "$@"
