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
// Dirty victims are counted in each level's statistics (Writebacks)
// and go no further: write-back traffic carries no program counter, so
// the paper's predictors never see it.
type Config struct {
	// L1 is the per-core L1 data cache geometry.
	L1 cache.Config
	// L2 is the per-core unified L2 geometry.
	L2 cache.Config
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
// (possibly shared) LLC. FilterBlock (block.go) walks demand accesses
// through the private levels; the caller delivers the LLC-bound records
// to LLC.
type Core struct {
	L1  *cache.Cache
	L2  *cache.Cache
	LLC *cache.Cache

	pendingGap uint64 // instructions since the last LLC-bound access
}

// NewCore builds a private L1/L2 stack in front of llc, which may be
// shared with other cores, or nil for a filter-only core whose LLC-bound
// records feed LLCs the caller owns.
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
		L1:  cache.New(l1, policy.NewLRU()),
		L2:  cache.New(l2, policy.NewLRU()),
		LLC: llc,
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
// filter-only cores with no LLC).
func (c *Core) Stats() LevelStats {
	s := LevelStats{L1: c.L1.Stats(), L2: c.L2.Stats()}
	if c.LLC != nil {
		s.LLC = c.LLC.Stats()
	}
	return s
}
