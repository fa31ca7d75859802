package sim

// The fan-out drive, which every single-core run goes through:
// a producer generates each block of the reference stream, filters it
// through the private L1/L2 levels and gathers its LLC-bound records
// once, and K lanes, each owning an LLC and a core timing model, replay
// the block. The private levels never read LLC or timing state, so each
// lane's result is byte-identical to a run of its own.

import (
	"fmt"
	"runtime"
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
// failed lane, or from the producer goroutine to RunFanout's caller.
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
// On a multi-CPU host a producer goroutine generates and filters ahead
// of the lanes. A panic in the generator or private levels, on either
// placement, fails every lane and is re-raised in the caller as a
// *Panic carrying the original stack.
func RunFanout(w workloads.Workload, opts SingleOptions, lanes []Lane) []LaneResult {
	return runFanout(w, opts, lanes, runtime.NumCPU() > 1)
}

// block is one block of filtered records, shared read-only by the
// lanes.
type block struct {
	fbBuf  [genBatch]hier.Filtered
	llcBuf [genBatch]mem.Access
	fb     []hier.Filtered // one record per generated access
	llc    []mem.Access    // the LLC-bound subsequence
}

// producer is the policy-independent half of a run, with the optional
// stream-capture tap.
type producer struct {
	gen     trace.Generator
	core    *hier.Core
	capture bool
	stream  []mem.Access
	as      [genBatch]mem.Access
	err     *Panic // a panic while filling
}

func newProducer(gen trace.Generator, opts SingleOptions) *producer {
	return &producer{
		gen:     gen,
		core:    hier.NewCore(hier.DefaultConfig(), nil),
		capture: opts.CaptureStream,
	}
}

// fill generates, filters and gathers the next block; false at the end
// of the stream or on a panic, which it records in p.err.
func (p *producer) fill(b *block) (ok bool) {
	defer func() {
		if r := recover(); r != nil {
			p.err = &Panic{Value: r, Stack: string(debug.Stack())}
			ok = false
		}
	}()
	n := p.gen.NextBatch(p.as[:])
	if n == 0 {
		return false
	}
	b.fb = b.fbBuf[:n]
	p.core.FilterBlock(p.as[:n], b.fb)
	b.llc = hier.GatherLLC(b.llcBuf[:0], b.fb)
	if p.capture {
		p.stream = append(p.stream, b.llc...)
	}
	return true
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

// runFanout is RunFanout with the producer placement explicit.
func runFanout(w workloads.Workload, opts SingleOptions, specs []Lane, concurrent bool) []LaneResult {
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
	drive(newProducer(w.Generator(opts.Scale), opts), opts, lanes, concurrent, start)
	out := make([]LaneResult, len(lanes))
	for i, l := range lanes {
		out[i].Err = l.err
		if l.err == nil {
			out[i].Result = l.res
		}
	}
	return out
}

// drive runs one pass of p's stream into the started lanes and
// finishes every lane still live at the end.
func drive(p *producer, opts SingleOptions, lanes []*lane, concurrent bool, start time.Time) {
	// replay reports whether any lane is still live; once none is, the
	// rest of the stream is skipped.
	replay := func(b *block) bool {
		live := false
		for _, l := range lanes {
			if l.err == nil {
				l.replay(b)
				live = live || l.err == nil
			}
		}
		return live
	}
	if concurrent {
		produceConcurrently(p, replay)
	} else {
		for b := new(block); p.fill(b) && replay(b); {
		}
	}
	if p.err != nil {
		panic(p.err)
	}

	live := 0
	for _, l := range lanes {
		if l.err == nil {
			l.finish(p.core.Stats(), opts)
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
			l.res.Stream = p.stream
		}
	}
}

// pipeBuffers is the concurrent producer's blocks in flight: one being
// filtered, one queued, one being replayed.
const pipeBuffers = 3

// produceConcurrently runs the producer in its own goroutine and the
// replay in the caller's, cycling a fixed ring of blocks; the consumer
// closes the ring's free side to stop the producer early. The two
// sides own disjoint state and the channels order the handoff. It
// returns once the producer has exited, which publishes the producer's
// state, p.err included, to the caller.
func produceConcurrently(p *producer, replay func(*block) bool) {
	recs := make(chan *block, pipeBuffers)
	free := make(chan *block, pipeBuffers)
	for i := 0; i < pipeBuffers; i++ {
		free <- new(block)
	}
	go p.run(free, recs)
	stopped := false
	for b := range recs {
		if stopped {
			continue // drain: the last lane has failed
		}
		if !replay(b) {
			close(free)
			stopped = true
			continue
		}
		free <- b // never blocks: free can hold every block
	}
}

// run is the producer goroutine: it fills free blocks into recs until
// the stream ends, a fill panics or free is closed, and always closes
// recs.
func (p *producer) run(free <-chan *block, recs chan<- *block) {
	defer close(recs)
	for b := range free {
		if !p.fill(b) {
			return
		}
		recs <- b // never blocks: recs can hold every block
	}
}
