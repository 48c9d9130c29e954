#!/usr/bin/env bash
# Builds perfbench and tpcserve from source, then runs one
# benchmark invocation. Run it from the repository root:
#
#   bash perfbench/run.sh --workload serve-transfer --seed 1 --seconds 30 --trace 0
#
# Everything it writes (Go build cache, binaries, journals, logs) lands
# under .bench_build/perfbench in the current directory, so a run touches
# nothing outside the checkout. Build time is spent here, before the
# benchmark starts its clock, and never counts toward setup_s.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build/perfbench"
mkdir -p "$out/bin" "$out/tmp"

export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export GOPATH="$out/gopath"
export GOFLAGS=
export GOPROXY=off
export GOTOOLCHAIN=local
export CGO_ENABLED=0

cd "$root/perfbench"
go build -o "$out/bin/perfbench" .
go build -o "$out/bin/tpcserve" speccat/cmd/tpcserve
cd "$root"

rm -rf "$out/work"
exec "$out/bin/perfbench" -bin "$out/bin" -work "$out/work" "$@"
