package sim

// The fan-out drive, which every single-core run goes through: one
// filtered stream (stream.go) generates each block of the reference
// stream, filters it through the private L1/L2 levels and gathers its
// LLC-bound records once, and K lanes, each owning an LLC and a core
// timing model, replay the block. The private levels never read LLC or
// timing state, so each lane's result is byte-identical to a run of its
// own.

import (
	"fmt"
	"runtime/debug"
	"time"

	"sdbp/internal/cache"
	"sdbp/internal/cpu"
	"sdbp/internal/hier"
	"sdbp/internal/mem"
	"sdbp/internal/probe"
	"sdbp/internal/trace"
	"sdbp/internal/workloads"
)

// Lane is one consumer of a fan-out run.
type Lane struct {
	// Policy builds the lane's LLC policy. It is called inside the
	// drive, so a constructor that panics fails only its own lane.
	Policy func() cache.Policy
	// LLC is the lane's geometry; the zero value selects the run's
	// SingleOptions.LLC.
	LLC cache.Config
}

// LaneResult is one lane's outcome: Result, or Err (a *Panic) when the
// lane's policy panicked.
type LaneResult struct {
	Result SingleResult
	Err    error
}

// Panic is a recovered panic carried to where it is reported: out of a
// failed lane, or from a stream's producer goroutine to the stream's
// consumer.
type Panic struct {
	Value any
	Stack string // the panicking goroutine's stack at the panic
}

func (p *Panic) Error() string { return fmt.Sprint(p.Value) }

// PanicStack returns the stack at the original panic, so a job runner
// that recovers a re-raised *Panic reports where it happened.
func (p *Panic) PanicStack() string { return p.Stack }

// RunFanout simulates one benchmark through the private levels once and
// replays the filtered stream into every lane, returning one result per
// lane, in order. Each successful result is byte-identical to RunSingle
// with the lane's policy and geometry. opts applies to every lane; a
// captured stream is the policy-independent LLC-bound stream, shared by
// the results. With opts.Probe enabled every lane records its own
// interval telemetry and per-PC attribution into its result's Probe.
//
// A producer goroutine generates and filters ahead of the lanes. A
// panic in the generator or private levels fails every lane and is
// re-raised in the caller as a *Panic carrying the original stack.
func RunFanout(w workloads.Workload, opts SingleOptions, specs []Lane) []LaneResult {
	opts.normalize()
	start := time.Now()
	lanes := make([]*lane, len(specs))
	for i, spec := range specs {
		cfg := opts.LLC
		if spec.LLC.SizeBytes != 0 {
			cfg = spec.LLC
		}
		lanes[i] = &lane{}
		lanes[i].start(w, spec.Policy, cfg, opts.Probe)
	}
	drive(w.Generator(opts.Scale), opts, lanes, start)
	out := make([]LaneResult, len(lanes))
	for i, l := range lanes {
		out[i].Err = l.err
		if l.err == nil {
			out[i].Result = l.res
		}
	}
	return out
}

type lane struct {
	res    SingleResult
	pol    cache.Policy
	llc    *cache.Cache
	timing *cpu.Core
	rs     [genBatch]cache.Result
	err    error

	// A probed lane's interval sampler and attribution table (nil
	// otherwise).
	probe   *probe.Config
	sampler *intervalSampler
	attr    attributionProvider
}

// guard turns a panic in the lane's code into the lane's failure; it
// must be deferred directly.
func (l *lane) guard() {
	if r := recover(); r != nil {
		l.err = &Panic{Value: r, Stack: string(debug.Stack())}
	}
}

// start builds the lane's LLC and timing model; an enabled pc makes it
// a probed lane.
func (l *lane) start(w workloads.Workload, newPolicy func() cache.Policy, cfg cache.Config, pc *probe.Config) {
	defer l.guard()
	l.pol = newPolicy()
	if pc != nil && pc.Enabled() {
		// Opt the policy into per-PC attribution before cache.New runs
		// its Reset, which sizes the table.
		l.probe, l.attr = pc, enableAttribution(l.pol)
	}
	l.llc = cache.New(cfg, l.pol)
	l.timing = cpu.New(cpu.DefaultConfig())
	l.sampler = newIntervalSampler(l.probe, l.llc, l.timing, l.pol)
	l.res = SingleResult{Benchmark: w.Name, Policy: l.pol.Name()}
}

// replay runs a block into the lane. A probed lane cuts the block after
// each record that reaches the sampler's next boundary and samples
// there, so intervals close after the same access as they would in a
// per-access loop.
func (l *lane) replay(b *block) {
	defer l.guard()
	if l.sampler == nil {
		replayFiltered(l.llc, l.timing, b.fb, b.llc, l.rs[:])
		return
	}
	fb, llcAs := b.fb, b.llc
	for len(fb) > 0 {
		n, k := l.sampler.cut(fb)
		replayFiltered(l.llc, l.timing, fb[:n], llcAs[:k], l.rs[:])
		l.sampler.maybeSample()
		fb, llcAs = fb[n:], llcAs[k:]
	}
}

// replayFiltered runs filtered records through an LLC and a timing
// model: llcAs, the records' LLC-bound subsequence (hier.GatherLLC),
// in one AccessBatch call, then every record's latency in order. rs is
// scratch, at least len(llcAs) long.
func replayFiltered(llc *cache.Cache, timing *cpu.Core, fb []hier.Filtered, llcAs []mem.Access, rs []cache.Result) {
	rs = rs[:len(llcAs)]
	llc.AccessBatch(llcAs, rs)
	next := 0
	for i := range fb {
		timing.Record(fb[i].Gap, fb[i].Level(rs, &next).Latency(), fb[i].Flags&hier.FDep != 0)
	}
}

func (l *lane) finish(private hier.LevelStats, opts SingleOptions) {
	defer l.guard()
	l.llc.Finish()
	private.LLC = l.llc.Stats()
	finishResult(&l.res, l.llc, l.timing, l.pol, private, opts)
	if l.sampler != nil {
		l.sampler.finish()
		l.res.Probe = buildSeries(&l.res, l.probe, l.sampler.intervals, l.attr)
	}
}

// drive runs one pass of gen's filtered stream into the started lanes
// and finishes every lane still live at the end.
func drive(gen trace.Generator, opts SingleOptions, lanes []*lane, start time.Time) {
	s := newStream(gen, laneShape)
	var captured []mem.Access
	s.each(func(b *block) bool {
		live := false
		for _, l := range lanes {
			if l.err == nil {
				l.replay(b)
				live = live || l.err == nil
			}
		}
		if opts.CaptureStream {
			captured = append(captured, b.llc...)
		}
		// Once no lane is live, the rest of the stream is skipped.
		return live
	})

	live := 0
	for _, l := range lanes {
		if l.err == nil {
			l.finish(s.core.Stats(), opts)
		}
		if l.err == nil {
			live++
		}
	}
	// The runs a pass produced share its wall time evenly, and the first
	// of them accounts for the pass.
	wall := time.Since(start)
	passes := uint64(1)
	for _, l := range lanes {
		if l.err != nil {
			continue
		}
		l.res.Duration = wall / time.Duration(live)
		l.res.FilterPasses, passes = passes, 0
		if opts.CaptureStream {
			l.res.Stream = captured
		}
	}
}
