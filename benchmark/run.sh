#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root:
#
#   bash benchmark/run.sh --workload stream-flat --seed 20210901 --seconds 20 --trace 0
#   bash benchmark/run.sh compare parent.jsonl change.jsonl
#
# The Go build cache, temporary files and the binary stay in
# .bench_build/ at the root, so the run writes nothing outside the
# checkout and needs no network.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/cache" "$out/tmp" "$out/config"
export GOCACHE="$out/cache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOPATH="$out/gopath" GOFLAGS= GOWORK=off GOPROXY=off GOTOOLCHAIN=local
(cd benchmark && go build -o "$out/benchmark" .)
exec "$out/benchmark" "$@"
