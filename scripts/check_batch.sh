#!/bin/sh
# check_batch.sh — enforce the block-granular hot-path invariant.
#
# hier.Core.FilterBlock is the only code that walks demand accesses
# through the private L1/L2 levels, and the filtered stream
# (internal/sim/stream.go) is the only generate+filter pass: its
# producer goroutine filters each block once. The fan-out drive behind
# RunSingle and RunFanout (probed runs included) and CompareLLC replay
# each block's LLC-bound records with cache.AccessBatch; RunMulticore
# merges one stream per core; the prefetch and victim experiments ride
# sim.FilterStream. MaterializeSampled is the one other FilterBlock
# caller: it filters only the accesses inside a plan's windows, and
# RunSampledTrace replays them through cache.AccessBatch. This guard
# fails when (a) one of those wiring points disappears, (b) a
# FilterBlock call shows up anywhere else in product code, (c) a scalar
# hierarchy walk — a core.Access( call — shows up anywhere in internal/
# or cmd/, or (d) a new per-access dispatch site (.Access( on a cache)
# shows up on the simulation path without being added to the
# documented allowlist below.
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
require internal/sim/stream.go 'core\.FilterBlock(' \
    "the filtered stream's one private-level pass per block"
require internal/sim/fanout.go 'newStream(' \
    "the fan-out drive's filtered stream"
require internal/sim/fanout.go 'llc\.AccessBatch(' \
    "the fan-out lanes' batched LLC replay"
require internal/sim/diff.go 'newStream(' \
    "CompareLLC's filtered stream"
require internal/sim/multicore.go 'newStream(' \
    "RunMulticore's per-core filtered streams"
require internal/prefetch/prefetch.go 'sim\.FilterStream(' \
    "the prefetch experiment's filtered stream"
require internal/victim/victim.go 'sim\.FilterStream(' \
    "the victim experiment's filtered stream"
require internal/sim/sampled.go 'llc\.AccessBatch(' \
    "RunSampledTrace's batched window replay"

if [ -n "$missing" ]; then
    echo "batch guard: block-granular wiring missing:$missing" >&2
    exit 1
fi

# Product FilterBlock calls: the stream producer and MaterializeSampled.
# Tests, and the policytest conformance harness that cross-checks
# FilterBlock itself, may call it directly.
filters=$(grep -rn '\.FilterBlock(' internal cmd *.go --include='*.go' \
  | grep -v '_test\.go:' \
  | grep -v '^[^:]*:[0-9]*:[[:space:]]*//' \
  | grep -v '^internal/policy/policytest/' \
  | grep -v '^internal/sim/stream\.go:' \
  | grep -v '^internal/sim/sampled\.go:' \
  || true)
if [ -n "$filters" ]; then
    echo "batch guard: FilterBlock outside the filtered stream (use sim.FilterStream or the stream in internal/sim):" >&2
    echo "$filters" >&2
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
