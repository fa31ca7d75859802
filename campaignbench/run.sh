#!/usr/bin/env bash
# Builds campaignbench from source and runs it with the given arguments
# (see README.md). Run from the repository root:
#
#   bash campaignbench/run.sh --workload sweep_memo --seed 1 --seconds 15 --trace 0
#
# The build cache and binary live under .bench_build/ in the current
# directory; the parent module is the simulator at the repository root.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/campaignbench" && go build -o "$out/campaignbench-bin" .) >&2
exec "$out/campaignbench-bin" -workdir "$out/campaignbench" "$@"
