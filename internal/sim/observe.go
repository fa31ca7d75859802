package sim

// This file folds finished runs' aggregate counters into an
// obs.Registry. The runner calls these at the experiment boundary for
// every live successful job (see obs.Observable), so the per-access
// hot path stays metric-free — everything here is read from the
// cache.Stats the simulation already keeps.

import (
	"sdbp/internal/cache"
	"sdbp/internal/obs"
)

// observeLevel adds one cache level's counters under
// sim_<level>_<counter> names.
func observeLevel(r *obs.Registry, level string, s cache.Stats) {
	pfx := obs.SimPrefix + level + "_"
	r.Counter(pfx + "accesses").Add(s.Accesses)
	r.Counter(pfx + "writes").Add(s.Writes)
	r.Counter(pfx + "hits").Add(s.Hits)
	r.Counter(pfx + "misses").Add(s.Misses)
	r.Counter(pfx + "bypasses").Add(s.Bypasses)
	r.Counter(pfx + "evictions").Add(s.Evictions)
	r.Counter(pfx + "writebacks").Add(s.Writebacks)
	r.Counter(pfx + "prefetches").Add(s.Prefetches)
	r.Counter(pfx + "useful_prefetches").Add(s.UsefulPrefetches)
}

// ObserveInto implements obs.Observable: it accumulates the run's
// per-level cache.Stats, instructions retired, cycles, and predictor
// verdicts as sim_* counters, plus the shared generation and
// private-level pass it accounts for (sim_filter_passes, so sim_runs /
// sim_filter_passes is the fan-out factor), and its wall time into the
// sim_run_seconds histogram.
func (r SingleResult) ObserveInto(reg *obs.Registry) {
	observeLevel(reg, "l1", r.L1)
	observeLevel(reg, "l2", r.L2)
	observeLevel(reg, "llc", r.LLC)
	reg.Counter(obs.SimPrefix + "runs").Inc()
	reg.Counter(obs.SimPrefix + "filter_passes").Add(r.FilterPasses)
	reg.Counter(obs.SimPrefix + "instructions").Add(r.Instructions)
	reg.Counter(obs.SimPrefix + "cycles").Add(r.Cycles)
	if r.Accuracy != nil {
		reg.Counter(obs.SimPrefix + "predictions").Add(r.Accuracy.Predictions)
		reg.Counter(obs.SimPrefix + "dead_predictions").Add(r.Accuracy.Positives)
		reg.Counter(obs.SimPrefix + "false_positive_hits").Add(r.Accuracy.FalsePositives)
	}
	reg.Histogram(obs.SimPrefix + "run_seconds").Observe(r.Duration.Seconds())
}

// Throughput returns demand accesses simulated per wall-clock second
// (0 when the run recorded no duration).
func (r SingleResult) Throughput() float64 {
	if r.Duration <= 0 {
		return 0
	}
	return float64(r.L1.Accesses) / r.Duration.Seconds()
}

// ObserveInto implements obs.Observable for multicore runs: shared-LLC
// and summed private-level counters, first-pass instructions, and wall
// time.
func (r MulticoreResult) ObserveInto(reg *obs.Registry) {
	observeLevel(reg, "l1", r.L1)
	observeLevel(reg, "l2", r.L2)
	observeLevel(reg, "llc", r.LLC)
	reg.Counter(obs.SimPrefix + "multicore_runs").Inc()
	var instr uint64
	for _, n := range r.Instructions {
		instr += n
	}
	reg.Counter(obs.SimPrefix + "instructions").Add(instr)
	reg.Counter(obs.SimPrefix + "cycles").Add(r.Cycles)
	reg.Histogram(obs.SimPrefix + "run_seconds").Observe(r.Duration.Seconds())
}
