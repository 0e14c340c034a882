#!/usr/bin/env bash
# Builds the benchmark and the pipesimd daemon from source, then runs one
# workload. Run it from the repository root:
#
#   bash perfbench/run.sh --workload catalog --seed 1 --seconds 10 --trace 0
#
# Every file the build and the run write (Go build cache, binaries, temp
# stores, per-run reports) lands under .bench_build/ in the current
# directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/home"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export HOME="$out/home"
export XDG_CONFIG_HOME="$out/home/.config"
export GOTOOLCHAIN=local
export GOFLAGS=-buildvcs=false
export GOPROXY=off

(cd "$root/perfbench" &&
	go build -o "$out/bin/perfbench" . &&
	go build -o "$out/bin/pipesimd" pipesim/cmd/pipesimd)

exec "$out/bin/perfbench" -root "$root" -daemon "$out/bin/pipesimd" -work "$out" "$@"
