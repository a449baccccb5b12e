#!/usr/bin/env bash
# Builds the benchmark and cmd/rvserve from this checkout, then runs the
# benchmark with the given arguments. Run it from the repository root:
#
#   bash bench/run.sh --workload small-mix --seed 1 --seconds 20 --trace 0
#
# Everything the build writes, the go command's caches and settings
# included, stays under .bench_build/ in the checkout.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	TMPDIR="$out/tmp" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOFLAGS=
# With telemetry on (the default mode is "local"), the first go command
# under a fresh config directory forks a detached telemetry process that
# outlives this script. Turn it off before running any go command.
mkdir -p "$out/config/go/telemetry"
echo off >"$out/config/go/telemetry/mode"
go build -o "$out/rvserve" ./cmd/rvserve
(cd bench && go build -o "$out/bench" .)
exec "$out/bench" -rvserve "$out/rvserve" "$@"
