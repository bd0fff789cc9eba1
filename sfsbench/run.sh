#!/usr/bin/env bash
# Builds the benchmark against this checkout's sources and runs it:
#
#   bash sfsbench/run.sh --workload cold --seed 1 --seconds 20 --trace 0
#
# The build cache, the binary and every file a run writes stay under
# .bench_build at the checkout root. Build output goes to stderr, so the
# last line of stdout is always the benchmark's JSON result; a failed build
# exits non-zero without printing one.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath" \
	GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	GOENV=off GOWORK=off GOPROXY=off GOTOOLCHAIN=local GOFLAGS=

(cd "$root/sfsbench" && go build -buildvcs=false -o "$build/sfsbench" .) >&2
cd "$root"
exec "$build/sfsbench" "$@"
