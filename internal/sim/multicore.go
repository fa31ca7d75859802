package sim

import (
	"fmt"
	"time"

	"sdbp/internal/cache"
	"sdbp/internal/cpu"
	"sdbp/internal/hier"
	"sdbp/internal/mem"
	"sdbp/internal/trace"
	"sdbp/internal/workloads"
)

// MulticoreResult reports one quad-core shared-LLC run.
type MulticoreResult struct {
	// MixName labels the workload mix.
	MixName string
	// Policy is the shared LLC policy name.
	Policy string
	// IPC is each core's IPC measured over its first full pass of its
	// benchmark (the paper's per-thread IPC_i).
	IPC [4]float64
	// Instructions is each core's first-pass instruction count.
	Instructions [4]uint64
	// LLC is the shared cache's statistics over the whole run.
	LLC cache.Stats
	// L1 and L2 are the private levels' statistics summed over cores.
	L1, L2 cache.Stats
	// Cycles is the cores' cycle counts summed (truncated per core for
	// schedule-independent aggregation).
	Cycles uint64
	// MPKI is shared-LLC misses per thousand instructions summed over
	// cores (for the paper's multicore normalized MPKI).
	MPKI float64
	// Duration is the run's wall time.
	Duration time.Duration
}

// MulticoreOptions tunes a multicore run.
type MulticoreOptions struct {
	// Scale multiplies each benchmark's default stream length; 0 means 1.
	Scale float64
	// LLC overrides the shared LLC geometry; the zero value selects the
	// paper's 8MB 16-way.
	LLC cache.Config
}

func (o *MulticoreOptions) normalize() {
	if o.Scale == 0 {
		o.Scale = 1
	}
	if o.LLC.SizeBytes == 0 {
		o.LLC = hier.LLCConfig(4)
	}
}

// mcChunk is a core stream's block size, in accesses: the records
// handed to the merge loop at a time.
const mcChunk = 4096

// mcBuffers is the number of blocks circulating per core stream: one
// being filled by the producer, one being consumed by the merge, and
// slack between them.
const mcBuffers = 4

// mcCore is one core of a multicore run. Its stream arrives filtered
// through the core's private levels from the stream's producer
// goroutine; the merge loop owns only the timing model and first-pass
// bookkeeping.
type mcCore struct {
	id     int
	gen    trace.Generator // the benchmark's stream, once through
	timing *cpu.Core
	s      *stream
	fb     []hier.Filtered // the block being merged
	pos    int

	target    uint64 // first-pass instruction count
	passInstr uint64
	doneIPC   float64
	done      bool
}

// coreGen is a core's reference stream: its benchmark's stream,
// restarted whenever it ends, with each access tagged with the core's
// thread ID and address-space bits before private filtering. It ends
// only if the benchmark's stream is empty.
type coreGen struct {
	trace.Generator
	id int
}

func (g *coreGen) NextBatch(dst []mem.Access) int {
	n := g.Generator.NextBatch(dst)
	if n == 0 {
		g.Generator.Reset()
		n = g.Generator.NextBatch(dst)
	}
	for i := range dst[:n] {
		dst[i].Thread = uint8(g.id)
		// Each core gets its own physical address space.
		dst[i].Addr |= uint64(g.id+1) << 56
	}
	return n
}

// next returns the core's next filtered record in stream order,
// pulling the stream's next block when the current one is drained.
func (c *mcCore) next(mixName string) (*hier.Filtered, error) {
	if c.pos == len(c.fb) {
		b := c.s.next()
		if b == nil {
			if p := c.s.stop(); p != nil {
				return nil, fmt.Errorf("sim: mix %s: core %d: %w", mixName, c.id, p)
			}
			return nil, fmt.Errorf("sim: mix %s: empty workload stream on core %d", mixName, c.id)
		}
		c.fb, c.pos = b.fb, 0
	}
	c.pos++
	return &c.fb[c.pos-1], nil
}

// accumPrivate replays one pre-filtered record's private-level counter
// effects into the run's summed L1/L2 statistics. The flags carry
// everything the private caches counted for a demand access (dirty
// victims are counted, never propagated, and private LRU caches never
// bypass or hold prefetches), so the sums match reading the
// caches' own statistics over the consumed prefix — which the producer
// caches themselves cannot provide, since they run ahead of the merge.
func accumPrivate(res *MulticoreResult, flags uint16) {
	res.L1.Accesses++
	if flags&hier.FWrite != 0 {
		res.L1.Writes++
	}
	if flags&hier.FL1Hit != 0 {
		res.L1.Hits++
		return
	}
	res.L1.Misses++
	if flags&hier.FL1Evict != 0 {
		res.L1.Evictions++
	}
	if flags&hier.FL1Writeback != 0 {
		res.L1.Writebacks++
	}
	res.L2.Accesses++
	if flags&hier.FWrite != 0 {
		res.L2.Writes++
	}
	if flags&hier.FL2Hit != 0 {
		res.L2.Hits++
		return
	}
	res.L2.Misses++
	if flags&hier.FL2Evict != 0 {
		res.L2.Evictions++
	}
	if flags&hier.FL2Writeback != 0 {
		res.L2.Writebacks++
	}
}

// RunMulticore simulates a quad-core mix sharing one LLC under the given
// policy, following the paper's methodology: every benchmark restarts
// when it finishes until all have completed at least one full pass, and
// each core's IPC is measured at the end of its own first pass. Cores
// interleave by simulated time: each step advances the core whose clock
// is furthest behind.
//
// Each core's generation and private L1/L2 filtering run in its
// stream's producer goroutine (goroutine-parallel across cores); the
// merge loop consumes the filtered streams in per-core order, so the
// simulated-time interleaving at the shared LLC — and with it every
// statistic — is byte-identical to a sequential per-access loop.
//
// Construction problems — an unknown mix member, an empty stream — and
// a panic in a core's generator or private levels are returned as
// errors rather than panicking, so one bad mix cannot kill a whole
// evaluation campaign.
func RunMulticore(mix workloads.Mix, pol cache.Policy, opts MulticoreOptions) (MulticoreResult, error) {
	opts.normalize()
	cores, err := mixCores(mix, opts.Scale)
	if err != nil {
		return MulticoreResult{}, err
	}
	return runMulticore(mix.Name, pol, opts, cores)
}

// mixCores resolves a mix's members into cores, each with its
// benchmark's stream and first-pass length.
func mixCores(mix workloads.Mix, scale float64) ([]*mcCore, error) {
	cores := make([]*mcCore, len(mix.Members))
	for i, name := range mix.Members {
		w, err := workloads.ByName(name)
		if err != nil {
			return nil, fmt.Errorf("sim: mix %s: %w", mix.Name, err)
		}
		cores[i] = &mcCore{
			id:  i,
			gen: w.Generator(scale),
			// First-pass length in instructions (gaps + one per access),
			// memoized across runs so no second stream walk happens here.
			target: w.Instructions(scale),
		}
	}
	return cores, nil
}

// runMulticore starts every core's stream and runs the merge.
func runMulticore(mixName string, pol cache.Policy, opts MulticoreOptions, cores []*mcCore) (MulticoreResult, error) {
	start := time.Now()
	llc := cache.New(opts.LLC, pol)
	res := MulticoreResult{MixName: mixName, Policy: pol.Name()}
	for _, c := range cores {
		c.timing = cpu.New(cpu.DefaultConfig())
		c.s = newStream(&coreGen{Generator: c.gen, id: c.id}, mixShape)
		defer c.s.stop()
	}

	remaining := len(cores)
	for remaining > 0 {
		// Advance the core furthest behind in simulated time.
		var next *mcCore
		for _, c := range cores {
			if next == nil || c.timing.Cycles() < next.timing.Cycles() {
				next = c
			}
		}
		f, err := next.next(mixName)
		if err != nil {
			return MulticoreResult{}, err
		}
		level := f.PrivateLevel()
		if level == hier.LevelMemory && llc.Access(f.LLC).Hit {
			level = hier.LevelLLC
		}
		next.timing.Record(f.Gap, level.Latency(), f.Flags&hier.FDep != 0)
		next.passInstr += uint64(f.Gap) + 1
		accumPrivate(&res, f.Flags)

		if !next.done && next.passInstr >= next.target {
			next.done = true
			next.doneIPC = next.timing.IPC()
			res.Instructions[next.id] = next.timing.Instructions()
			remaining--
		}
	}
	llc.Finish()

	var totalInstr uint64
	for i, c := range cores {
		res.IPC[i] = c.doneIPC
		totalInstr += res.Instructions[i]
		res.Cycles += uint64(c.timing.Cycles())
	}
	res.LLC = llc.Stats()
	if totalInstr > 0 {
		res.MPKI = float64(res.LLC.Misses) / (float64(totalInstr) / 1000)
	}
	res.Duration = time.Since(start)
	return res, nil
}

// SingleIPC returns a benchmark's IPC running alone with the given LLC
// geometry under LRU — the denominator of the paper's weighted
// speedup. An unknown benchmark name is an error, not a panic.
func SingleIPC(name string, llcCfg cache.Config, scale float64, makeLRU func() cache.Policy) (float64, error) {
	w, err := workloads.ByName(name)
	if err != nil {
		return 0, err
	}
	r := RunSingle(w, makeLRU(), SingleOptions{Scale: scale, LLC: llcCfg})
	return r.IPC, nil
}
