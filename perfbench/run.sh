#!/usr/bin/env bash
# Builds the wall-clock benchmark program from the sources of the checkout it
# is run in, then runs it with the given arguments.  Run from the repository
# root:
#
#   bash perfbench/run.sh --workload pipeline-ooc --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write goes under .bench_build/ in the
# current directory; the toolchain is never asked to fetch anything.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/work"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -workdir "$out/work" "$@"
