package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
	"unsafe"

	"sdbp/internal/cache"
	"sdbp/internal/cpu"
	"sdbp/internal/exp"
	"sdbp/internal/hier"
	"sdbp/internal/mem"
	"sdbp/internal/optimal"
	"sdbp/internal/runner"
	"sdbp/internal/sim"
	"sdbp/internal/trace"
	"sdbp/internal/workloads"
)

// The traced run composes every cell from the layers' public functions
// and reads the clock once per call per block, never per access:
//
//	single-core: Generator/NextBatch → FilterBlock → AccessBatch → Record
//	mix:         per-core NextBatch + FilterBlock prefilter goroutines,
//	             and the serial timestamp merge (LLC access + Record)
//	MIN:         a single-core capture run, then optimal.Simulate
//
// Single-core cells run the serial block drive, the loop sim.RunSingle
// takes on a one-CPU host, so on multi-CPU hosts trace.overhead_frac
// also contains the producer/consumer overlap the untraced run gets.

// blockSize matches sim's generation batch.
const blockSize = 256

// Multicore prefilter geometry, as in sim.RunMulticore.
const (
	mcChunk   = 4096
	mcBuffers = 4
)

// cellTrace accumulates one cell's layer times and counts.
type cellTrace struct {
	gen, filter, llc, cpu, min, merge, mergeWait time.Duration
	// Prefilter goroutines run concurrently with the merge; their time
	// is kept apart from the cell's serial timeline.
	preGen, preFilter, prefilter time.Duration

	genCalls, filterCalls, llcCalls, cpuCalls, minCalls int64
	chunks                                              int64  // chunks the prefilter goroutines produced
	pulls                                               int64  // chunks the merge loop waited for
	accesses                                            uint64 // accesses generated
	records                                             uint64 // filtered records consumed by the drive loop
	llcBound                                            uint64 // consumed records that missed L1 and L2
	llcTimed                                            uint64 // LLC accesses inside timed AccessBatch calls
	cpuTimed                                            uint64 // Record calls inside timed blocks
	mergeRecords                                        uint64
	captureBytes                                        uint64
	llcAccesses                                         uint64 // LLC accesses from the cell's statistics
	llcMisses                                           uint64
}

// span is one traced cell: its wall time and one child per layer.
type span struct {
	Cell     string  `json:"cell"`
	StartNS  int64   `json:"start_ns"`
	WallNS   int64   `json:"wall_ns"`
	Children []child `json:"children"`
	Err      string  `json:"error,omitempty"`
}

// child is one layer's total time and call count within a cell.
// Concurrent children ran on prefilter goroutines beside the cell's
// own timeline and are not part of its wall-time sum.
type child struct {
	Name       string `json:"name"`
	TotalNS    int64  `json:"total_ns"`
	Calls      int64  `json:"calls"`
	Concurrent bool   `json:"concurrent,omitempty"`
}

func (t *cellTrace) span(cell string, start, origin time.Time, wall time.Duration) span {
	s := span{Cell: cell, StartNS: start.Sub(origin).Nanoseconds(), WallNS: wall.Nanoseconds()}
	serial := []child{
		{Name: "trace.gen", TotalNS: int64(t.gen), Calls: t.genCalls},
		{Name: "hier.filter", TotalNS: int64(t.filter), Calls: t.filterCalls},
		{Name: "llc.access", TotalNS: int64(t.llc), Calls: t.llcCalls},
		{Name: "cpu.record", TotalNS: int64(t.cpu), Calls: t.cpuCalls},
		{Name: "optimal.min", TotalNS: int64(t.min), Calls: t.minCalls},
		{Name: "sim.merge", TotalNS: int64(t.merge), Calls: int64(t.mergeRecords)},
		{Name: "sim.merge_wait", TotalNS: int64(t.mergeWait), Calls: t.pulls},
	}
	other := wall
	for _, c := range serial {
		other -= time.Duration(c.TotalNS)
		if c.TotalNS != 0 || c.Calls != 0 {
			s.Children = append(s.Children, c) // layers the cell used
		}
	}
	s.Children = append(s.Children, child{Name: "sim.other", TotalNS: int64(other), Calls: 1})
	if t.prefilter > 0 {
		s.Children = append(s.Children,
			child{Name: "sim.prefilter", TotalNS: int64(t.prefilter), Calls: t.chunks, Concurrent: true},
			child{Name: "trace.gen", TotalNS: int64(t.preGen), Calls: t.chunks, Concurrent: true},
			child{Name: "hier.filter", TotalNS: int64(t.preFilter), Calls: t.chunks, Concurrent: true},
		)
	}
	return s
}

// reconcile checks every span: the serial children, sim.other
// included, sum to the cell's wall with none negative, and concurrent
// generation plus filtering fit inside the prefilter time.
func reconcile(spans []span) error {
	for _, s := range spans {
		var serial, inner, pre int64
		for _, c := range s.Children {
			if c.TotalNS < 0 {
				return fmt.Errorf("span %s: %s is negative (%d ns)", s.Cell, c.Name, c.TotalNS)
			}
			switch {
			case !c.Concurrent:
				serial += c.TotalNS
			case c.Name == "sim.prefilter":
				pre = c.TotalNS
			default:
				inner += c.TotalNS
			}
		}
		if serial != s.WallNS {
			return fmt.Errorf("span %s: layers sum to %d ns, wall is %d ns", s.Cell, serial, s.WallNS)
		}
		if inner > pre {
			return fmt.Errorf("span %s: prefilter children %d ns exceed prefilter %d ns", s.Cell, inner, pre)
		}
	}
	return nil
}

// singleTraced is sim.RunSingle's serial block drive with each layer
// call timed. With capture set it also returns the LLC-bound stream.
func singleTraced(w workloads.Workload, pol cache.Policy, scale float64, llcCfg cache.Config,
	capture bool, t *cellTrace) (sim.SingleResult, []mem.Access, error) {
	llc := cache.New(llcCfg, pol)
	core := hier.NewCore(hier.DefaultConfig(), llc)
	timing := cpu.New(cpu.DefaultConfig())

	t0 := time.Now()
	bg, ok := w.Generator(scale).(trace.BatchGenerator)
	if !ok {
		return sim.SingleResult{}, nil, fmt.Errorf("%s: generator is not batch-capable", w.Name)
	}
	var (
		buf    [blockSize]mem.Access
		fb     [blockSize]hier.Filtered
		llcAs  [blockSize]mem.Access
		llcRs  [blockSize]cache.Result
		lat    [blockSize]int
		stream []mem.Access
	)
	for {
		n := bg.NextBatch(buf[:])
		t1 := time.Now()
		t.gen += t1.Sub(t0)
		t.genCalls++
		if n == 0 {
			break
		}
		core.FilterBlock(buf[:n], fb[:n])
		t2 := time.Now()
		t.filter += t2.Sub(t1)
		t.filterCalls++
		m := 0
		for i := range fb[:n] {
			if fb[i].Flags&hier.FLLCBound != 0 {
				llcAs[m] = fb[i].LLC
				m++
			}
		}
		if capture {
			stream = append(stream, llcAs[:m]...)
		}
		t3 := time.Now()
		llc.AccessBatch(llcAs[:m], llcRs[:m])
		t4 := time.Now()
		t.llc += t4.Sub(t3)
		t.llcCalls++
		j := 0
		for i := range fb[:n] {
			level := fb[i].PrivateLevel()
			if level == hier.LevelMemory {
				if llcRs[j].Hit {
					level = hier.LevelLLC
				}
				j++
			}
			lat[i] = level.Latency()
		}
		t5 := time.Now()
		for i := range fb[:n] {
			timing.Record(fb[i].Gap, lat[i], fb[i].Flags&hier.FDep != 0)
		}
		t0 = time.Now()
		t.cpu += t0.Sub(t5)
		t.cpuCalls++
		t.accesses += uint64(n)
		t.records += uint64(n)
		t.cpuTimed += uint64(n)
		t.llcBound += uint64(m)
		t.llcTimed += uint64(m)
	}
	llc.Finish()

	res := sim.SingleResult{
		Benchmark:    w.Name,
		Policy:       pol.Name(),
		Instructions: timing.Instructions(),
		Cycles:       uint64(timing.Cycles()),
		IPC:          timing.IPC(),
	}
	lv := core.Stats()
	res.LLC, res.L1, res.L2 = lv.LLC, lv.L1, lv.L2
	if res.Instructions > 0 {
		res.MPKI = float64(res.LLC.Misses) / (float64(res.Instructions) / 1000)
	}
	t.llcAccesses += res.LLC.Accesses
	t.llcMisses += res.LLC.Misses
	return res, stream, nil
}

// optimalTraced is figures.OptimalMPKI composed: an LRU capture run on
// the default LLC, then MIN over the captured stream.
func optimalTraced(w workloads.Workload, scale float64, t *cellTrace) (float64, error) {
	cfg := hier.LLCConfig(1)
	r, stream, err := singleTraced(w, exp.MustResolvePolicy(mixPolicyLRU).Make(1), scale, cfg, true, t)
	if err != nil {
		return 0, err
	}
	t.captureBytes += uint64(len(stream)) * uint64(unsafe.Sizeof(mem.Access{}))
	start := time.Now()
	min := optimal.Simulate(stream, cfg.Sets(), cfg.Ways)
	t.min += time.Since(start)
	t.minCalls++
	if r.Instructions == 0 {
		return 0, nil
	}
	return float64(min.Misses) / (float64(r.Instructions) / 1000), nil
}

// preTrace is one prefilter goroutine's own accumulator, folded into
// the cell's trace after the goroutine has exited.
type preTrace struct {
	gen, filter, busy time.Duration
	chunks            int64
	accesses          uint64
}

// prefilterTraced is sim's per-core prefilter: generate a chunk of the
// restarting stream, tag it with the core's thread and address-space
// bits, and filter it through the core's private levels.
func prefilterTraced(id int, mixName string, gen trace.Generator, filter *hier.Core,
	recs, free chan []hier.Filtered, errc chan error, stop <-chan struct{}, pt *preTrace) {
	defer close(recs)
	bg, ok := gen.(trace.BatchGenerator)
	if !ok {
		errc <- fmt.Errorf("mix %s: core %d generator is not batch-capable", mixName, id)
		return
	}
	buf := make([]mem.Access, mcChunk)
	for {
		start := time.Now()
		n := 0
		for n < mcChunk {
			k := bg.NextBatch(buf[n:])
			if k == 0 {
				gen.Reset()
				if k = bg.NextBatch(buf[n:]); k == 0 {
					errc <- fmt.Errorf("mix %s: empty workload stream on core %d", mixName, id)
					return
				}
			}
			n += k
		}
		pt.gen += time.Since(start)
		for i := range buf {
			buf[i].Thread = uint8(id)
			buf[i].Addr |= uint64(id+1) << 56
		}
		pt.busy += time.Since(start)
		var out []hier.Filtered
		select {
		case out = <-free:
		case <-stop:
			return
		}
		fs := time.Now()
		filter.FilterBlock(buf, out[:mcChunk])
		d := time.Since(fs)
		pt.filter += d
		pt.busy += d
		pt.chunks++
		pt.accesses += mcChunk
		select {
		case recs <- out[:mcChunk]:
		case <-stop:
			return
		}
	}
}

// mcCore is one core's merge-side state.
type mcCore struct {
	timing    *cpu.Core
	id        int
	recs      chan []hier.Filtered
	free      chan []hier.Filtered
	errc      chan error
	cur       []hier.Filtered
	pos       int
	target    uint64
	passInstr uint64
	doneIPC   float64
	done      bool
}

// mixTraced is sim.RunMulticore composed, with the merge loop timed as
// a whole apart from its waits for pre-filtered chunks.
func mixTraced(mix workloads.Mix, pol cache.Policy, scale float64, llcCfg cache.Config, t *cellTrace) (sim.MulticoreResult, error) {
	llc := cache.New(llcCfg, pol)
	res := sim.MulticoreResult{MixName: mix.Name, Policy: pol.Name()}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	pts := make([]preTrace, len(mix.Members))
	shutdown := func() {
		close(stop)
		wg.Wait()
		for _, pt := range pts {
			t.preGen += pt.gen
			t.preFilter += pt.filter
			t.prefilter += pt.busy
			t.chunks += pt.chunks
			t.accesses += pt.accesses
		}
	}
	cores := make([]*mcCore, len(mix.Members))
	for i, name := range mix.Members {
		w, err := workloads.ByName(name)
		if err != nil {
			shutdown()
			return sim.MulticoreResult{}, err
		}
		c := &mcCore{
			timing: cpu.New(cpu.DefaultConfig()),
			id:     i,
			recs:   make(chan []hier.Filtered, mcBuffers-2),
			free:   make(chan []hier.Filtered, mcBuffers),
			errc:   make(chan error, 1),
			target: w.Instructions(scale),
		}
		for b := 0; b < mcBuffers; b++ {
			c.free <- make([]hier.Filtered, mcChunk)
		}
		cores[i] = c
		filter := hier.NewCore(hier.DefaultConfig(), nil)
		gen := w.Generator(scale)
		wg.Add(1)
		go func(pt *preTrace) {
			defer wg.Done()
			prefilterTraced(c.id, mix.Name, gen, filter, c.recs, c.free, c.errc, stop, pt)
		}(&pts[i])
	}

	mergeStart := time.Now()
	var wait time.Duration
	remaining := len(cores)
	for remaining > 0 {
		var next *mcCore
		for _, c := range cores {
			if next == nil || c.timing.Cycles() < next.timing.Cycles() {
				next = c
			}
		}
		if next.pos >= len(next.cur) {
			if next.cur != nil {
				next.free <- next.cur
			}
			ws := time.Now()
			chunk, ok := <-next.recs
			wait += time.Since(ws)
			t.pulls++
			if !ok {
				err := <-next.errc
				shutdown()
				return sim.MulticoreResult{}, err
			}
			next.cur, next.pos = chunk, 0
		}
		f := next.cur[next.pos]
		next.pos++
		level := hier.LevelMemory
		switch {
		case f.Flags&hier.FL1Hit != 0:
			level = hier.LevelL1
		case f.Flags&hier.FL2Hit != 0:
			level = hier.LevelL2
		default:
			t.llcBound++
			if llc.Access(f.LLC).Hit {
				level = hier.LevelLLC
			}
		}
		next.timing.Record(f.Gap, level.Latency(), f.Flags&hier.FDep != 0)
		next.passInstr += uint64(f.Gap) + 1
		accumPrivate(&res, f.Flags)
		t.mergeRecords++
		if !next.done && next.passInstr >= next.target {
			next.done = true
			next.doneIPC = next.timing.IPC()
			res.Instructions[next.id] = next.timing.Instructions()
			remaining--
		}
	}
	t.merge += time.Since(mergeStart) - wait
	t.mergeWait += wait
	t.records += t.mergeRecords
	shutdown()
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
	t.llcAccesses += res.LLC.Accesses
	t.llcMisses += res.LLC.Misses
	return res, nil
}

// accumPrivate replays one pre-filtered record's private-level counter
// effects, as sim.RunMulticore does for the consumed prefix.
func accumPrivate(res *sim.MulticoreResult, flags uint16) {
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

// tracedJob is one composed cell handed to the runner; run returns the
// cell's digests keyed by cell key.
type tracedJob struct {
	key string
	run func(t *cellTrace) (map[string]string, error)
}

// tracer runs composed cells through the runner in the untraced run's
// batches and keeps every span in memory until the run ends.
type tracer struct {
	origin  time.Time
	workers int

	mu      sync.Mutex
	spans   []span
	total   cellTrace
	digests map[string]string
	failed  []string
	jobs    int
	busy    time.Duration // sum of cell walls
	wall    time.Duration // sum of batch walls
	tail    time.Duration // sum of batch straggler waits
}

// batch runs one runner.Run call of composed cells with the workload's
// fixed worker count, then folds in its runner-level figures.
func (tr *tracer) batch(jobs []tracedJob) {
	type interval struct{ start, end time.Time }
	ivs := make([]interval, len(jobs))
	var rjobs []runner.Job[map[string]string]
	for i, j := range jobs {
		i, j := i, j
		rjobs = append(rjobs, runner.Job[map[string]string]{
			Key: j.key,
			Run: func(context.Context) (map[string]string, error) {
				var t cellTrace
				start := time.Now()
				d, err := j.run(&t)
				wall := time.Since(start)
				s := t.span(j.key, start, tr.origin, wall)
				if err != nil {
					s.Err = err.Error()
				}
				tr.mu.Lock()
				ivs[i] = interval{start, start.Add(wall)}
				tr.spans = append(tr.spans, s)
				tr.total.add(&t)
				tr.busy += wall
				tr.mu.Unlock()
				return d, err
			},
		})
	}
	start := time.Now()
	set := runner.Run(context.Background(), rjobs, runner.Options{Workers: tr.workers})
	end := time.Now()

	// The straggler wait starts when the first worker finds the queue
	// empty: with fewer jobs than workers at once, otherwise at the
	// first cell end after the last cell started.
	firstIdle := start
	if len(jobs) >= tr.workers {
		var lastStart time.Time
		for _, iv := range ivs {
			if iv.start.After(lastStart) {
				lastStart = iv.start
			}
		}
		firstIdle = end
		for _, iv := range ivs {
			if !iv.end.Before(lastStart) && iv.end.Before(firstIdle) {
				firstIdle = iv.end
			}
		}
	}
	tr.jobs += len(jobs)
	tr.wall += end.Sub(start)
	tr.tail += end.Sub(firstIdle)
	for _, j := range jobs {
		if d, ok := set.Value(j.key); ok {
			for k, v := range d {
				tr.digests[k] = v
			}
		} else {
			tr.failed = append(tr.failed, j.key)
		}
	}
}

func (t *cellTrace) add(o *cellTrace) {
	t.gen += o.gen
	t.filter += o.filter
	t.llc += o.llc
	t.cpu += o.cpu
	t.min += o.min
	t.merge += o.merge
	t.mergeWait += o.mergeWait
	t.preGen += o.preGen
	t.preFilter += o.preFilter
	t.prefilter += o.prefilter
	t.accesses += o.accesses
	t.records += o.records
	t.llcBound += o.llcBound
	t.llcTimed += o.llcTimed
	t.cpuTimed += o.cpuTimed
	t.mergeRecords += o.mergeRecords
	t.captureBytes += o.captureBytes
	t.llcAccesses += o.llcAccesses
	t.llcMisses += o.llcMisses
}

// layers turns the run's totals into the per-layer metrics.
func (tr *tracer) layers() map[string]float64 {
	t := &tr.total
	var other time.Duration
	for _, s := range tr.spans {
		for _, c := range s.Children {
			if c.Name == "sim.other" {
				other += time.Duration(c.TotalNS)
			}
		}
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	return map[string]float64{
		"trace.gen_s":         (t.gen + t.preGen).Seconds(),
		"trace.accesses":      float64(t.accesses),
		"hier.filter_s":       (t.filter + t.preFilter).Seconds(),
		"hier.llc_bound_frac": ratio(float64(t.llcBound), float64(t.records)),
		"llc.access_s":        t.llc.Seconds(),
		"llc.accesses":        float64(t.llcAccesses),
		"llc.ns_per_access":   ratio(float64(t.llc.Nanoseconds()), float64(t.llcTimed)),
		"llc.miss_frac":       ratio(float64(t.llcMisses), float64(t.llcAccesses)),
		"cpu.record_s":        t.cpu.Seconds(),
		"cpu.ns_per_record":   ratio(float64(t.cpu.Nanoseconds()), float64(t.cpuTimed)),
		"sim.other_s":         other.Seconds(),
		"sim.prefilter_s":     t.prefilter.Seconds(),
		"sim.merge_s":         t.merge.Seconds(),
		"sim.merge_wait_s":    t.mergeWait.Seconds(),
		"sim.merge_records":   float64(t.mergeRecords),
		"optimal.min_s":       t.min.Seconds(),
		"sim.capture_mb":      float64(t.captureBytes) / 1e6,
		"runner.jobs":         float64(tr.jobs),
		"runner.failed":       float64(len(tr.failed)),
		"runner.busy_frac":    ratio(tr.busy.Seconds(), float64(tr.workers)*tr.wall.Seconds()),
		"runner.tail_idle_s":  tr.tail.Seconds(),
	}
}

// runTraced runs one traced repetition of a plan: the same cells in the
// same runner batches as runUntraced, composed from layer calls. The
// spans are written to spansPath when the run ends.
func runTraced(p plan, spansPath string) (*repResult, error) {
	d := p.Def
	tr := &tracer{workers: d.Workers, digests: map[string]string{}}
	var batches [][]tracedJob
	finish := func(map[string]string) {}
	var err error
	if d.Mixes {
		batches, finish, err = mixBatches(p)
	} else {
		batches, err = singleBatches(p)
	}
	if err != nil {
		return nil, err
	}

	res := &repResult{}
	tr.origin = time.Now()
	if err := res.measure(false, func() {
		for _, b := range batches {
			tr.batch(b)
		}
	}); err != nil {
		return nil, err
	}
	finish(tr.digests)
	res.Digests, res.Failed = tr.digests, tr.failed
	res.Layers = tr.layers()

	sort.Slice(tr.spans, func(i, j int) bool { return tr.spans[i].StartNS < tr.spans[j].StartNS })
	if err := reconcile(tr.spans); err != nil {
		return nil, err
	}
	out, err := json.MarshalIndent(tr.spans, "", " ")
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(spansPath, out, 0o644); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	return res, nil
}

// singleBatches mirrors runUntraced's runner calls for a single-core
// workload: the policy matrix, then the MIN cells when it has them.
func singleBatches(p plan) ([][]tracedJob, error) {
	d := p.Def
	benches, err := lookupBenches(p.Names)
	if err != nil {
		return nil, err
	}
	pols := make([]exp.Policy, len(d.Policies))
	for i, name := range d.Policies {
		if pols[i], err = exp.ResolvePolicy(name); err != nil {
			return nil, err
		}
	}
	var cells, mins []tracedJob
	for _, w := range benches {
		w := w
		for i, name := range d.Policies {
			pol := pols[i]
			key := singleKey(d.Name, w.Name, name)
			cells = append(cells, tracedJob{key, func(t *cellTrace) (map[string]string, error) {
				r, _, err := singleTraced(w, pol.Make(1), d.Scale, hier.LLCConfig(1), false, t)
				if err != nil {
					return nil, err
				}
				return map[string]string{key: digestSingle(r)}, nil
			}})
		}
		if d.Optimal {
			key := minKey(d.Name, w.Name)
			mins = append(mins, tracedJob{key, func(t *cellTrace) (map[string]string, error) {
				v, err := optimalTraced(w, d.Scale, t)
				if err != nil {
					return nil, err
				}
				return map[string]string{key: digestFloat(v)}, nil
			}})
		}
	}
	if d.Optimal {
		return [][]tracedJob{cells, mins}, nil
	}
	return [][]tracedJob{cells}, nil
}

// mixBatches mirrors runMixesUntraced's runner calls: the solo
// denominators, then the first spec's mixes with the LRU baseline, then
// each later spec's mixes alone (its LRU and solo cells come from the
// checkpoint there). The returned finish adds the weighted-speedup
// digests once every batch has run, as the figure panel does.
func mixBatches(p plan) ([][]tracedJob, func(map[string]string), error) {
	d := p.Def
	mixes, err := lookupMixes(p.Names)
	if err != nil {
		return nil, nil, err
	}
	llcCfg := mixLLC()
	var mu sync.Mutex
	soloIPC := map[string]float64{}
	results := map[string]sim.MulticoreResult{}

	var solos []tracedJob
	for _, n := range mixMembers(mixes) {
		w, err := workloads.ByName(n)
		if err != nil {
			return nil, nil, err
		}
		key := soloKey(d.Name, n)
		solos = append(solos, tracedJob{key, func(t *cellTrace) (map[string]string, error) {
			r, _, err := singleTraced(w, exp.MustResolvePolicy(mixPolicyLRU).Make(1), d.Scale, llcCfg, false, t)
			if err != nil {
				return nil, err
			}
			mu.Lock()
			soloIPC[w.Name] = r.IPC
			mu.Unlock()
			return map[string]string{key: digestFloat(r.IPC)}, nil
		}})
	}
	mixJob := func(mix workloads.Mix, name string) (tracedJob, error) {
		pol, err := exp.ResolvePolicy(name)
		if err != nil {
			return tracedJob{}, err
		}
		key := mixKey(d.Name, mix.Name, name)
		return tracedJob{key, func(t *cellTrace) (map[string]string, error) {
			r, err := mixTraced(mix, pol.Make(4), d.Scale, llcCfg, t)
			if err != nil {
				return nil, err
			}
			mu.Lock()
			results[key] = r
			mu.Unlock()
			return map[string]string{key: digestMulti(r)}, nil
		}}, nil
	}
	batches := [][]tracedJob{solos}
	for i, name := range d.Policies {
		var b []tracedJob
		for _, mix := range mixes {
			names := []string{name}
			if i == 0 {
				names = []string{mixPolicyLRU, name}
			}
			for _, n := range names {
				j, err := mixJob(mix, n)
				if err != nil {
					return nil, nil, err
				}
				b = append(b, j)
			}
		}
		batches = append(batches, b)
	}

	// weighted is figures' weighted speedup: the sum over members of
	// the mix IPC over the solo IPC, in member order.
	weighted := func(mix workloads.Mix, pol string) (float64, bool) {
		r, ok := results[mixKey(d.Name, mix.Name, pol)]
		if !ok {
			return 0, false
		}
		var ws float64
		for i, name := range mix.Members {
			solo, ok := soloIPC[name]
			if !ok {
				return 0, false
			}
			ws += r.IPC[i] / solo
		}
		return ws, true
	}
	finish := func(digests map[string]string) {
		for _, mix := range mixes {
			lru, ok := weighted(mix, mixPolicyLRU)
			for _, pol := range d.Policies {
				if ws, ok2 := weighted(mix, pol); ok && ok2 {
					digests[wsKey(d.Name, mix.Name, pol)] = digestFloat(ws / lru)
				}
			}
		}
	}
	return batches, finish, nil
}
