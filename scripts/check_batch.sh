#!/bin/sh
# check_batch.sh — enforce the block-granular hot-path invariant.
#
# hier.Core.FilterBlock is the only code that walks demand accesses
# through the private L1/L2 levels. The fan-out drive behind RunSingle
# and RunFanout (probed runs included) filters each block once and
# replays its LLC-bound records into every lane with cache.AccessBatch,
# RunSampledTrace replays windows through cache.AccessBatch,
# RunMulticore filters each core's stream with FilterBlock before the
# ordered LLC merge, and the prefetch and victim experiments filter
# with FilterBlock too. This guard fails when (a) one of those wiring
# points disappears, (b) a scalar hierarchy walk — a core.Access( call
# — shows up anywhere in internal/ or cmd/, or (c) a new per-access
# dispatch site (.Access( on a cache) shows up on the simulation path
# without being added to the documented allowlist below.
#
# Allowlisted per-record LLC legs — each is per-record by necessity:
#
#   sim/multicore.go      llc.Access(f.LLC)  the shared-LLC merge is one
#                                            record at a time (timestamp
#                                            ordering across cores)
#   prefetch/prefetch.go  llc.Access(f.LLC)  a miss's prefetch fills change
#                                            the LLC before the next record
#   victim/victim.go      llc.Access(f.LLC)  each eviction changes the
#                                            victim buffer the next miss
#                                            probes
#   *_test.go                                tests cross-check batch vs
#                                            scalar
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
require internal/prefetch/prefetch.go 'core\.FilterBlock(' \
    "the prefetch experiment's private-level pass per block"
require internal/victim/victim.go 'core\.FilterBlock(' \
    "the victim experiment's private-level pass per block"

if [ -n "$missing" ]; then
    echo "batch guard: block-granular wiring missing:$missing" >&2
    exit 1
fi

scalar=$(grep -rn 'core\.Access(' internal cmd --include='*.go' || true)
if [ -n "$scalar" ]; then
    echo "batch guard: scalar hierarchy walk (use hier.Core.FilterBlock):" >&2
    echo "$scalar" >&2
    exit 1
fi

violations=$(grep -rn '\.Access(' internal/sim internal/figures \
    internal/prefetch internal/victim --include='*.go' \
  | grep -v '_test\.go:' \
  | grep -v '^internal/sim/multicore\.go:[0-9]*:.*llc\.Access(f\.LLC)' \
  | grep -v '^internal/prefetch/prefetch\.go:[0-9]*:.*llc\.Access(f\.LLC)' \
  | grep -v '^internal/victim/victim\.go:[0-9]*:.*llc\.Access(f\.LLC)' \
  || true)

if [ -n "$violations" ]; then
    echo "batch guard: per-access dispatch on the simulation path:" >&2
    echo "$violations" >&2
    echo "route bulk traffic through FilterBlock/AccessBatch (or add a documented exception here)" >&2
    exit 1
fi
echo "batch guard: ok"
