#!/usr/bin/env bash
# Builds the benchmark and cmd/served from source, then runs the benchmark
# with the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload timing-sweep --seed 1 --seconds 20 --trace 0
#
# Every build output (binaries, the Go build cache, Go's temporary and
# config files) goes under .bench_build/ in the root, or under
# $CARGO_TARGET_DIR when that is set.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case "$build" in
  /*) ;;
  *) build="$root/$build" ;;
esac
mkdir -p "$build/bin" "$build/tmp"

export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
# Go's own config and telemetry files live under the user config directory.
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOENV=off

go build -C "$root/perfbench" -o "$build/bin/perfbench" . >&2
go build -o "$build/bin/served" ./cmd/served >&2
exec "$build/bin/perfbench" -root "$root" -served "$build/bin/served" "$@"
