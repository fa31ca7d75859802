// Package sim drives the experiments: it runs a workload's reference
// stream through the cache hierarchy and CPU timing model against a
// chosen LLC management policy, and reports the metrics the paper's
// tables and figures are built from (MPKI, IPC, predictor accuracy,
// cache efficiency, the captured LLC stream for MIN).
package sim

import (
	"time"

	"sdbp/internal/cache"
	"sdbp/internal/cpu"
	"sdbp/internal/dbrb"
	"sdbp/internal/hier"
	"sdbp/internal/mem"
	"sdbp/internal/predictor"
	"sdbp/internal/probe"
	"sdbp/internal/workloads"
)

// genBatch is the drive loop's generation buffer, in accesses: big
// enough to amortize per-batch overhead, small enough to stay in L1.
const genBatch = 256

// SingleResult reports one single-core run.
type SingleResult struct {
	// Benchmark is the workload name.
	Benchmark string
	// Policy is the LLC policy name.
	Policy string
	// Instructions is the total instruction count (gaps + memory ops).
	Instructions uint64
	// Cycles is the timing model's cycle count, truncated to an
	// integer so aggregate counters built from it are exact and
	// schedule-independent.
	Cycles uint64
	// IPC is instructions per cycle under the core timing model.
	IPC float64
	// LLC is the last-level cache's statistics.
	LLC cache.Stats
	// L1 and L2 are the private levels' statistics, so campaign
	// counters can reconcile total work across the whole hierarchy.
	L1, L2 cache.Stats
	// Duration is the run's wall time (not serialized into goldens;
	// feeds throughput gauges only). Runs that shared a fan-out pass
	// split its wall time evenly.
	Duration time.Duration
	// FilterPasses is 1 on the result that accounts for the
	// generation and private-level pass it rode on (one per RunFanout
	// call, however many lanes shared it), else 0; it feeds the
	// sim_filter_passes counter.
	FilterPasses uint64 `json:"-"`
	// MPKI is LLC misses per thousand instructions.
	MPKI float64
	// Efficiency is the LLC's live-time ratio (Figure 1's metric).
	Efficiency float64
	// LineEfficiencies is the per-line efficiency map when requested.
	LineEfficiencies [][]float64
	// Accuracy is predictor accuracy when the policy is DBRB.
	Accuracy *dbrb.Accuracy
	// UpdateFraction is the fraction of LLC accesses that updated the
	// predictor, for sampling predictors.
	UpdateFraction float64
	// Stream is the captured LLC access stream when requested.
	Stream []mem.Access
	// Probe is the run's interval telemetry and per-PC attribution
	// table; nil unless SingleOptions.Probe asked for it.
	Probe *probe.Series
}

// SingleOptions tunes a single-core run.
type SingleOptions struct {
	// Scale multiplies the workload's default stream length; 0 means 1.
	Scale float64
	// LLC overrides the LLC geometry; the zero value selects the
	// paper's 2MB 16-way.
	LLC cache.Config
	// CaptureStream records the LLC access stream into the result (for
	// MIN).
	CaptureStream bool
	// KeepLineEfficiencies records the per-line efficiency map (for
	// Figure 1).
	KeepLineEfficiencies bool
	// Probe enables microarchitectural introspection: interval
	// telemetry every Probe.Interval retired instructions plus the
	// per-PC death-attribution table (see package probe). Nil keeps the
	// run byte-identical to an unprobed one.
	Probe *probe.Config
}

func (o *SingleOptions) normalize() {
	if o.Scale == 0 {
		o.Scale = 1
	}
	if o.LLC.SizeBytes == 0 {
		o.LLC = hier.LLCConfig(1)
	}
}

// RunSingle simulates one benchmark on one core with the given LLC
// policy and returns the run's metrics. It is the one-lane fan-out (see
// RunFanout). A panic in the policy, the generator or the private
// levels propagates to the caller as a *Panic carrying the original
// stack.
func RunSingle(w workloads.Workload, pol cache.Policy, opts SingleOptions) SingleResult {
	opts.normalize()
	start := time.Now()
	// Drive the one lane directly: RunFanout's lane and result slices
	// would add allocations to every single run.
	var l lane
	l.start(w, func() cache.Policy { return pol }, opts.LLC, opts.Probe)
	drive(w.Generator(opts.Scale), opts, []*lane{&l}, start)
	if l.err != nil {
		panic(l.err)
	}
	return l.res
}

// finishResult fills a run's metrics from its finished LLC, timing
// model and per-level statistics.
func finishResult(res *SingleResult, llc *cache.Cache, timing *cpu.Core, pol cache.Policy, levels hier.LevelStats, opts SingleOptions) {
	res.Instructions = timing.Instructions()
	res.Cycles = uint64(timing.Cycles())
	res.IPC = timing.IPC()
	res.LLC = levels.LLC
	res.L1 = levels.L1
	res.L2 = levels.L2
	if res.Instructions > 0 {
		res.MPKI = float64(res.LLC.Misses) / (float64(res.Instructions) / 1000)
	}
	res.Efficiency = llc.Efficiency()
	if opts.KeepLineEfficiencies {
		res.LineEfficiencies = llc.LineEfficiencies()
	}
	fillAccuracy(res, pol)
}

// fillAccuracy extracts predictor-quality metrics when the policy is a
// dead-block replacement and bypass policy (or wraps one, like the
// dueling variant). Non-DBRB baselines — and typed-nil policies — are
// tolerated via the shared accuracyOf guard (see probe.go).
func fillAccuracy(res *SingleResult, pol cache.Policy) {
	d, ok := accuracyOf(pol)
	if !ok {
		return
	}
	acc := d.Accuracy()
	res.Accuracy = &acc
	if s, ok := d.Predictor().(*predictor.Sampler); ok {
		res.UpdateFraction = s.UpdateFraction()
	}
}
