#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it with the given
# arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload cre-chain --seed 1 --seconds 25 --trace 0
#
# The build cache, the binary, scratch files and traces stay under
# .bench_build; the go command's config and telemetry go there too.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
XDG_CONFIG_HOME="$out/config" GOENV=off GOCACHE="$out/gocache" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off \
	go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
