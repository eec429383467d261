#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; all arguments are passed on, e.g.
#
#   bash perfbench/run.sh --workload social-read --seed 1 --seconds 15 --trace 0
#
# Build cache, binary, generated inputs and span logs all stay under
# .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/gopath" "$build/bin"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	GOPATH="$build/gopath" GOTOOLCHAIN=local GOPROXY=off GOWORK=off

# Build output goes to stderr: the last line on stdout is the result.
(cd "$root/perfbench" && go build -o "$build/bin/perfbench" .) >&2
exec "$build/bin/perfbench" "$@"
