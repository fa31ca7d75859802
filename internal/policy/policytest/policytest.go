// Package policytest is the cross-policy conformance and differential
// harness. Every policy spelling the registry exposes — presets, CLI
// aliases' canonical names, Figure 6 ablation variants, and the bare
// expression names with their defaults — runs through one shared
// invariant suite (stats reconciliation, determinism across repeats and
// GOMAXPROCS, prediction accounting, steady-state allocation pins), and
// a differential suite proves each composed policy degenerates to its
// base policy when its predictor is neutralized (dbrb over the
// always-live predictor, SHiP with a saturated frozen SHCT, a duel
// forced to its base leader).
//
// Coverage is derived from the registry's own name lists, so a policy
// registered in internal/exp is tested here with no further wiring; the
// CI guard script (scripts/check_policy_zoo.sh) closes the remaining
// hole by failing the build when a builder case is missing from those
// name lists.
package policytest

import (
	"fmt"

	"sdbp/internal/cache"
	"sdbp/internal/dbrb"
	"sdbp/internal/exp"
	"sdbp/internal/hier"
	"sdbp/internal/mem"
	"sdbp/internal/sim"
	"sdbp/internal/workloads"
)

// Expressions returns every registry-visible policy spelling the
// conformance suite must cover: preset names, Figure 6 ablation
// variants, and each registered bare expression name (which resolves
// with its paper defaults).
func Expressions() []string {
	var out []string
	out = append(out, exp.PresetNames()...)
	out = append(out, exp.AblationVariantNames()...)
	out = append(out, exp.PolicyNames()...)
	return out
}

// Fingerprint captures everything a figure cell derives from one
// single-core run, in both raw and figure-formatted form. Two runs of
// the same deterministic configuration must produce identical
// fingerprints; a degenerate policy must fingerprint identically to its
// base policy.
type Fingerprint struct {
	Instructions uint64
	Cycles       uint64
	IPC          float64
	MPKI         float64
	LLC          cache.Stats
	// Accuracy is the dead-block prediction accounting for DBRB-rooted
	// policies (nil otherwise).
	Accuracy *dbrb.Accuracy
	// Cells is the figure-cell rendering (the "%.3f"/"%.4f" precision
	// the experiment tables print at), so "byte-identical figure cells"
	// is literal.
	Cells string
}

// Run simulates one benchmark under a registry policy expression and
// returns its fingerprint. It panics on an unresolvable expression
// (harness inputs are registry-derived).
func Run(nameOrExpr, bench string, scale float64) Fingerprint {
	w, err := workloads.ByName(bench)
	if err != nil {
		panic(err)
	}
	p := exp.MustResolvePolicy(nameOrExpr)
	r := sim.RunSingle(w, p.Make(1), sim.SingleOptions{Scale: scale})
	return Fingerprint{
		Instructions: r.Instructions,
		Cycles:       r.Cycles,
		IPC:          r.IPC,
		MPKI:         r.MPKI,
		LLC:          r.LLC,
		Accuracy:     r.Accuracy,
		Cells: fmt.Sprintf("ipc=%.3f mpki=%.3f miss=%.4f",
			r.IPC, r.MPKI, missRate(r.LLC)),
	}
}

// BatchDifferential drives the same LLC-bound stream through two fresh
// caches built from the same policy expression — one per-access through
// Access, one in chunks through AccessBatch — and returns a description
// of the first divergence in per-access results, statistics, or final
// tag state ("" when byte-identical). chunk sets the batch size (a
// value that does not divide the stream length also exercises the
// trailing short batch).
func BatchDifferential(nameOrExpr string, stream []mem.Access, chunk int) string {
	p := exp.MustResolvePolicy(nameOrExpr)
	scalar := cache.New(hier.LLCConfig(1), p.Make(1))
	batch := cache.New(hier.LLCConfig(1), p.Make(1))

	scalarRs := make([]cache.Result, len(stream))
	for i, a := range stream {
		scalarRs[i] = scalar.Access(a)
	}
	batchRs := make([]cache.Result, len(stream))
	for lo := 0; lo < len(stream); lo += chunk {
		hi := lo + chunk
		if hi > len(stream) {
			hi = len(stream)
		}
		batch.AccessBatch(stream[lo:hi], batchRs[lo:hi])
	}

	for i := range scalarRs {
		if scalarRs[i] != batchRs[i] {
			return fmt.Sprintf("access %d: scalar result %+v != batch result %+v", i, scalarRs[i], batchRs[i])
		}
	}
	if s, b := scalar.Stats(), batch.Stats(); s != b {
		return fmt.Sprintf("stats diverged: scalar %+v != batch %+v", s, b)
	}
	return diffKeys("LLC", scalar, batch)
}

// HierBatchDifferential drives the same raw demand stream through two
// fresh full hierarchies under the same policy expression — one
// per-access through the scalar reference walk (scalarAccess), one in
// chunks through the block path the simulator's drive loop composes
// (FilterBlock over the private levels' AccessPrivate, GatherLLC, the
// LLC's AccessBatch, Filtered.Level) — and returns the first divergence
// in satisfying levels, LLC-bound records (gap rewriting included),
// per-level statistics, or final tag state at any level ("" when
// byte-identical).
func HierBatchDifferential(nameOrExpr string, stream []mem.Access, chunk int) string {
	p := exp.MustResolvePolicy(nameOrExpr)
	scalarCore := hier.NewCore(hier.DefaultConfig(), cache.New(hier.LLCConfig(1), p.Make(1)))
	batchCore := hier.NewCore(hier.DefaultConfig(), cache.New(hier.LLCConfig(1), p.Make(1)))

	scalarLv := make([]hier.Level, len(stream))
	var scalarLLC []mem.Access
	var pending uint64
	for i, a := range stream {
		scalarLv[i] = scalarAccess(scalarCore, a, &pending, &scalarLLC)
	}
	batchLv := make([]hier.Level, len(stream))
	fb := make([]hier.Filtered, chunk)
	rs := make([]cache.Result, chunk)
	var batchLLC []mem.Access
	for lo := 0; lo < len(stream); lo += chunk {
		hi := lo + chunk
		if hi > len(stream) {
			hi = len(stream)
		}
		batchCore.FilterBlock(stream[lo:hi], fb[:hi-lo])
		n := len(batchLLC)
		batchLLC = hier.GatherLLC(batchLLC, fb[:hi-lo])
		llcAs := batchLLC[n:]
		batchCore.LLC.AccessBatch(llcAs, rs[:len(llcAs)])
		next := 0
		for i := range fb[:hi-lo] {
			batchLv[lo+i] = fb[i].Level(rs, &next)
		}
	}

	for i := range scalarLv {
		if scalarLv[i] != batchLv[i] {
			return fmt.Sprintf("access %d: scalar level %v != batch level %v", i, scalarLv[i], batchLv[i])
		}
	}
	if len(scalarLLC) != len(batchLLC) {
		return fmt.Sprintf("LLC-bound records: scalar %d != batch %d", len(scalarLLC), len(batchLLC))
	}
	for i := range scalarLLC {
		if scalarLLC[i] != batchLLC[i] {
			return fmt.Sprintf("LLC-bound record %d: scalar %+v != batch %+v", i, scalarLLC[i], batchLLC[i])
		}
	}
	if s, b := scalarCore.Stats(), batchCore.Stats(); s != b {
		return fmt.Sprintf("level stats diverged:\n  scalar %+v\n  batch  %+v", s, b)
	}
	if msg := diffKeys("L1", scalarCore.L1, batchCore.L1); msg != "" {
		return msg
	}
	if msg := diffKeys("L2", scalarCore.L2, batchCore.L2); msg != "" {
		return msg
	}
	return diffKeys("LLC", scalarCore.LLC, batchCore.LLC)
}

// scalarAccess is the reference the block path is checked against: one
// demand access down L1, L2 and the LLC through the general
// cache.Access path, each level allocating on miss. An access both
// private levels miss reaches the LLC with its Gap rewritten to the
// instructions retired since the previous LLC-bound access (*pending
// carries that count between calls) and is appended to *llc.
func scalarAccess(c *hier.Core, a mem.Access, pending *uint64, llc *[]mem.Access) hier.Level {
	*pending += uint64(a.Gap) + 1
	if c.L1.Access(a).Hit {
		return hier.LevelL1
	}
	if c.L2.Access(a).Hit {
		return hier.LevelL2
	}
	a.Gap = uint32(min(*pending-1, 1<<32-1))
	*pending = 0
	*llc = append(*llc, a)
	if c.LLC.Access(a).Hit {
		return hier.LevelLLC
	}
	return hier.LevelMemory
}

// diffKeys compares two caches' complete tag state.
func diffKeys(level string, a, b *cache.Cache) string {
	ka, kb := a.KeysSnapshot(), b.KeysSnapshot()
	if len(ka) != len(kb) {
		return fmt.Sprintf("%s: key array lengths diverged: %d != %d", level, len(ka), len(kb))
	}
	for i := range ka {
		if ka[i] != kb[i] {
			return fmt.Sprintf("%s: tag state diverged at line %d: %#x != %#x", level, i, ka[i], kb[i])
		}
	}
	return ""
}

func missRate(s cache.Stats) float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// CheckStats verifies the cache-stats bookkeeping invariants every
// policy must preserve, returning a description of the first violation
// or "" when all hold:
//
//   - hits + misses == accesses (every access resolves exactly once)
//   - bypasses <= misses (only misses can bypass)
//   - evictions <= misses - bypasses (only placed misses can evict)
func CheckStats(s cache.Stats) string {
	if s.Hits+s.Misses != s.Accesses {
		return fmt.Sprintf("hits %d + misses %d != accesses %d", s.Hits, s.Misses, s.Accesses)
	}
	if s.Bypasses > s.Misses {
		return fmt.Sprintf("bypasses %d > misses %d", s.Bypasses, s.Misses)
	}
	if s.Evictions > s.Misses-s.Bypasses {
		return fmt.Sprintf("evictions %d > misses %d - bypasses %d", s.Evictions, s.Misses, s.Bypasses)
	}
	return ""
}
