// Package hier wires caches into the paper's three-level hierarchy:
// per-core 32KB 8-way L1 data caches and 256KB 8-way unified L2 caches
// (both LRU), in front of a 16-way last-level cache (2MB per core,
// shared in multi-core configurations). The mid-level cache's filtering
// of temporal locality is central to the paper's argument, so demand
// accesses really do traverse L1 and L2 before reaching the LLC.
package hier

import (
	"sdbp/internal/cache"
	"sdbp/internal/cpu"
	"sdbp/internal/mem"
	"sdbp/internal/policy"
)

// Level identifies where an access was satisfied.
type Level int

const (
	// LevelL1 means the access hit in the L1 data cache.
	LevelL1 Level = iota
	// LevelL2 means it hit in the unified L2.
	LevelL2
	// LevelLLC means it hit in the last-level cache.
	LevelLLC
	// LevelMemory means it missed everywhere.
	LevelMemory
)

// Latency returns the completion latency, in cycles, of an access
// satisfied at the level.
func (l Level) Latency() int {
	switch l {
	case LevelL1:
		return cpu.LatL1
	case LevelL2:
		return cpu.LatL2
	case LevelLLC:
		return cpu.LatLLC
	default:
		return cpu.LatMem
	}
}

func (l Level) String() string {
	switch l {
	case LevelL1:
		return "L1"
	case LevelL2:
		return "L2"
	case LevelLLC:
		return "LLC"
	default:
		return "memory"
	}
}

// Config sizes the private levels. DefaultConfig matches the paper.
type Config struct {
	// L1 is the per-core L1 data cache geometry.
	L1 cache.Config
	// L2 is the per-core unified L2 geometry.
	L2 cache.Config
	// PropagateWritebacks sends dirty L1 victims into the L2 and dirty
	// L2 victims into the LLC as Writeback accesses (which predictors
	// ignore and bypass never drops). The default, matching the runs
	// recorded in EXPERIMENTS.md, only counts write-back traffic in
	// each cache's statistics.
	PropagateWritebacks bool
}

// DefaultConfig returns the paper's private-level geometry: L1D 32KB
// 8-way, L2 256KB 8-way.
func DefaultConfig() Config {
	return Config{
		L1: cache.Config{Name: "L1D", SizeBytes: 32 << 10, Ways: 8},
		L2: cache.Config{Name: "L2", SizeBytes: 256 << 10, Ways: 8},
	}
}

// LLCConfig returns the paper's LLC geometry for a given core count:
// 2MB per core, 16-way.
func LLCConfig(cores int) cache.Config {
	return cache.Config{Name: "LLC", SizeBytes: cores * (2 << 20), Ways: 16}
}

// Core is one hardware thread's private cache stack in front of a
// (possibly shared) LLC.
type Core struct {
	L1  *cache.Cache
	L2  *cache.Cache
	LLC *cache.Cache

	// onLLC, when set, observes every access reaching the LLC with its
	// Gap rewritten to the instruction distance since the previous LLC
	// access from this core — the captured stream MIN replays.
	onLLC func(a mem.Access)

	// onLLCMiss, when set, observes demand misses in the LLC — the
	// trigger point for prefetchers.
	onLLCMiss func(a mem.Access)

	// onLLCEvict, when set, observes LLC evictions with the displaced
	// block's address — the trigger point for victim caches.
	onLLCEvict func(evictedAddr uint64)

	writebacks bool   // propagate dirty victims down the hierarchy
	pendingGap uint64 // instructions since the last LLC access
}

// NewCore builds a private L1/L2 stack in front of llc (which may be
// shared with other cores, or nil for capture-only runs).
func NewCore(cfg Config, llc *cache.Cache) *Core {
	// Only the LLC's efficiency is ever reported; skipping the private
	// levels' accounting keeps their hit path free of per-line metadata.
	l1, l2 := cfg.L1, cfg.L2
	l1.SkipEfficiency = true
	l2.SkipEfficiency = true
	// The private levels are architecturally fixed at plain LRU (the
	// paper varies only the LLC policy), so they are built directly
	// rather than through the internal/exp registry — the one sanctioned
	// exception in scripts/check_construction.sh. The direct call also
	// keeps cache.PlainLRU devirtualization on the L1/L2 hit path.
	return &Core{
		L1:         cache.New(l1, policy.NewLRU()),
		L2:         cache.New(l2, policy.NewLRU()),
		LLC:        llc,
		writebacks: cfg.PropagateWritebacks,
	}
}

// LevelStats aggregates one core stack's counters across its levels.
// Each level's Stats satisfies Hits+Misses == Accesses; the LLC entry
// is shared-cache-wide when the LLC is shared.
type LevelStats struct {
	L1  cache.Stats
	L2  cache.Stats
	LLC cache.Stats
}

// Total sums the counters across levels — the campaign-level "work
// simulated" figure the observability layer reports.
func (s LevelStats) Total() cache.Stats {
	return s.L1.Add(s.L2).Add(s.LLC)
}

// Stats returns the stack's per-level counters (a zero LLC entry for
// capture-only cores with no LLC).
func (c *Core) Stats() LevelStats {
	s := LevelStats{L1: c.L1.Stats(), L2: c.L2.Stats()}
	if c.LLC != nil {
		s.LLC = c.LLC.Stats()
	}
	return s
}

// CaptureLLC registers fn to observe the core's LLC access stream.
func (c *Core) CaptureLLC(fn func(a mem.Access)) { c.onLLC = fn }

// OnLLCMiss registers fn to observe the core's LLC demand misses.
func (c *Core) OnLLCMiss(fn func(a mem.Access)) { c.onLLCMiss = fn }

// OnLLCEvict registers fn to observe the core's LLC evictions.
func (c *Core) OnLLCEvict(fn func(evictedAddr uint64)) { c.onLLCEvict = fn }

// Access sends one demand reference down the hierarchy and reports the
// level that satisfied it. All levels allocate on miss (subject to the
// LLC policy's bypass decision). Dirty evictions are counted in each
// cache's statistics; write-back traffic does not consume LLC predictor
// bandwidth (writebacks carry no program counter, so the paper's
// predictors ignore them).
func (c *Core) Access(a mem.Access) Level {
	c.pendingGap += uint64(a.Gap) + 1
	r1 := c.L1.Access(a)
	if c.writebacks && r1.EvictedDirty {
		rwb := c.writeback(c.L2, r1.WritebackAddr, a.Thread)
		if rwb.EvictedDirty && c.LLC != nil {
			c.writeback(c.LLC, rwb.WritebackAddr, a.Thread)
		}
	}
	if r1.Hit {
		return LevelL1
	}
	r2 := c.L2.Access(a)
	if c.writebacks && r2.EvictedDirty && c.LLC != nil {
		c.writeback(c.LLC, r2.WritebackAddr, a.Thread)
	}
	if r2.Hit {
		return LevelL2
	}
	llcA := a
	gap := c.pendingGap - 1
	if gap > 1<<32-1 {
		gap = 1<<32 - 1
	}
	llcA.Gap = uint32(gap)
	c.pendingGap = 0
	if c.onLLC != nil {
		c.onLLC(llcA)
	}
	if c.LLC == nil {
		// Capture-only core: the LLC-bound record (gap rewritten) was
		// still delivered to the observer above.
		return LevelMemory
	}
	res := c.LLC.Access(llcA)
	if res.Evicted && c.onLLCEvict != nil {
		c.onLLCEvict(res.EvictedAddr)
	}
	if res.Hit {
		return LevelLLC
	}
	if c.onLLCMiss != nil {
		c.onLLCMiss(llcA)
	}
	return LevelMemory
}

// writeback delivers a dirty victim to the next level as a Writeback
// access. Lower-level dirty victims it displaces propagate no further
// here; the LLC's own dirty victims go to memory (counted in its
// statistics).
func (c *Core) writeback(to *cache.Cache, addr uint64, thread uint8) cache.Result {
	return to.Access(mem.Access{Addr: addr, Write: true, Writeback: true, Thread: thread})
}
