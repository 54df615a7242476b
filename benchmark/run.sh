#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ and runs it with the
# given arguments. Run it from the repository root:
#
#   bash benchmark/run.sh --workload svc-small --seed 1 --seconds 26 --trace 0
#
# Every build product (binary, Go build cache, temporary files, the go
# command's own config and telemetry files) stays under .bench_build/ in
# the current directory.
set -euo pipefail

root="$(pwd)"
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal" ]; then
	echo "benchmark/run.sh: run from the root of an mcbnet checkout" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off

go -C "$root/benchmark" build -buildvcs=false -o "$out/mcbbench" .
exec "$out/mcbbench" "$@"
