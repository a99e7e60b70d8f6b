#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload. Run it from
# the root of a checkout:
#
#   bash perfbench/run.sh --workload zipf --seed 1 --seconds 20 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the
# checkout: the Go build cache, the binary, scratch networks and the
# span files of traced runs.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/go-cache" "$out/tmp" "$out/home"
export GOCACHE="$out/go-cache" GOPATH="$out/gopath" TMPDIR="$out/tmp" HOME="$out/home"
export GOTOOLCHAIN=local GOPROXY=off GOTELEMETRY=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --dir "$out" "$@"
