#!/bin/sh
# check_batch.sh — enforce the block-granular hot-path invariant.
#
# The campaign drive loops dispatch at block granularity: the fan-out
# drive behind RunSingle and RunFanout filters each block once with
# hier.Core.FilterBlock and replays its LLC-bound records into every
# lane with cache.AccessBatch, RunSampledTrace replays windows through
# cache.AccessBatch, and RunMulticore filters each core's stream with
# hier.Core.FilterBlock before the ordered LLC merge. This guard fails
# when (a) one of those wiring points disappears, or (b) a new
# per-access dispatch site (.Access( on a core or cache) shows up on the
# simulation path without being added to the documented allowlist below.
#
# Allowlisted per-access sites — each is per-access by necessity:
#
#   sim.go       core.Access(a)      probed runs (an interval sampler
#                                    reads state between accesses)
#   multicore.go llc.Access(f.LLC)   the shared-LLC merge is inherently
#                                    one record at a time (timestamp
#                                    ordering across cores)
#   *_test.go                        tests cross-check batch vs scalar
set -eu
cd "$(dirname "$0")/.."

missing=""
require() { # file pattern description
    if ! grep -q "$2" "$1"; then
        missing="${missing}
  $1: expected \`$2\` ($3)"
    fi
}
require internal/sim/fanout.go 'core\.FilterBlock(' \
    "the fan-out drive's one private-level pass per block"
require internal/sim/fanout.go 'llc\.AccessBatch(' \
    "the fan-out lanes' batched LLC replay"
require internal/sim/sampled.go 'llc\.AccessBatch(' \
    "RunSampledTrace's batched window replay"
require internal/sim/multicore.go '\.FilterBlock(' \
    "RunMulticore's per-core private-level prefilter"

if [ -n "$missing" ]; then
    echo "batch guard: block-granular wiring missing:$missing" >&2
    exit 1
fi

violations=$(grep -rn '\.Access(' internal/sim internal/figures \
    --include='*.go' \
  | grep -v '_test\.go:' \
  | grep -v 'core\.Access(a)' \
  | grep -v 'llc\.Access(f\.LLC)' \
  || true)

if [ -n "$violations" ]; then
    echo "batch guard: per-access dispatch on the simulation path:" >&2
    echo "$violations" >&2
    echo "route bulk traffic through FilterBlock/AccessBatch (or add a documented exception here)" >&2
    exit 1
fi
echo "batch guard: ok"
