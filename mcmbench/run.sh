#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in and runs
# it with the given flags, e.g.
#
#   bash mcmbench/run.sh --workload road-p4 --seed 7 --seconds 30 --trace 0
#
# Run from the repository root. Everything the build writes, the Go build
# cache and the toolchain's own config and telemetry files included, stays
# under .bench_build/ in that root.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(dirname "$here")/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod" \
	GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=readonly
go -C "$here" build -o "$out/mcmbench" .
exec "$out/mcmbench" "$@"
