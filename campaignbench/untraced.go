package main

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"sdbp/internal/cache"
	"sdbp/internal/exp"
	"sdbp/internal/figures"
	"sdbp/internal/hier"
	"sdbp/internal/runner"
	"sdbp/internal/sim"
	"sdbp/internal/workloads"
)

// repResult is one repetition of a workload, run in its own process so
// the stream memo and every modelled cache start empty.
type repResult struct {
	// SetupEnd is the wall clock, in Unix nanoseconds, at the first
	// simulation call; the parent subtracts its spawn time.
	SetupEnd int64 `json:"setup_end_unix_ns"`
	// WallS, CPUS and AllocMB cover the first simulation call to the
	// last cell's completion.
	WallS   float64 `json:"wall_s"`
	CPUS    float64 `json:"cpu_s"`
	AllocMB float64 `json:"alloc_mb"`
	// Instructions is the first-pass simulated instruction count of
	// every cell.
	Instructions uint64 `json:"instructions"`
	// RefWallS and RefCPUS are the wall and CPU time of each
	// reference-kernel pass run just before and just after the campaign
	// (see ref.go).
	RefWallS []float64 `json:"ref_wall_s"`
	RefCPUS  []float64 `json:"ref_cpu_s"`
	// Failed lists cells whose job errored or panicked.
	Failed []string `json:"failed,omitempty"`
	// Digests maps each cell key to the hash of its simulated outputs.
	Digests map[string]string `json:"digests"`
	// Layers holds the traced run's per-layer metrics.
	Layers map[string]float64 `json:"layers,omitempty"`
}

// measure runs the timed part of a repetition: everything before it is
// set-up, everything inside is the campaign. The reference kernel runs
// right before and right after the campaign, outside its wall, CPU and
// allocation figures. With setupOnly it returns at the first
// simulation call, for a set-up sample.
func (r *repResult) measure(setupOnly bool, run func()) error {
	r.SetupEnd = time.Now().UnixNano()
	if setupOnly {
		return nil
	}
	if err := r.reference(); err != nil {
		return err
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	alloc0, cpu0 := ms.TotalAlloc, cpuSeconds()
	start := time.Now()
	run()
	r.WallS = time.Since(start).Seconds()
	r.CPUS = cpuSeconds() - cpu0
	runtime.ReadMemStats(&ms)
	r.AllocMB = float64(ms.TotalAlloc-alloc0) / 1e6
	return r.reference()
}

// reference runs refSamplePasses reference-kernel passes and records
// each one's time.
func (r *repResult) reference() error {
	for i := 0; i < refSamplePasses; i++ {
		w, c, err := refKernel()
		if err != nil {
			return err
		}
		r.RefWallS = append(r.RefWallS, w)
		r.RefCPUS = append(r.RefCPUS, c)
	}
	return nil
}

// cpuSeconds is the process's user+system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

func lookupBenches(names []string) ([]workloads.Workload, error) {
	out := make([]workloads.Workload, len(names))
	for i, n := range names {
		w, err := workloads.ByName(n)
		if err != nil {
			return nil, err
		}
		out[i] = w
	}
	return out, nil
}

func policySpecs(names []string) ([]figures.PolicySpec, error) {
	out := make([]figures.PolicySpec, len(names))
	for i, n := range names {
		p, err := exp.ResolvePolicy(n)
		if err != nil {
			return nil, err
		}
		out[i] = figures.PolicySpec{Name: n, Make: p.Make}
	}
	return out, nil
}

// runUntraced runs one repetition of a plan through the entry points
// cmd/experiments and sdbpd use, and digests every cell's outputs.
func runUntraced(p plan, workdir string, setupOnly bool) (*repResult, error) {
	if p.Def.Mixes {
		return runMixesUntraced(p, workdir, setupOnly)
	}
	d := p.Def
	benches, err := lookupBenches(p.Names)
	if err != nil {
		return nil, err
	}
	specs, err := policySpecs(d.Policies)
	if err != nil {
		return nil, err
	}
	env := &figures.Env{Workers: d.Workers}
	var minJobs []runner.Job[float64]
	if d.Optimal {
		for _, w := range benches {
			w := w
			minJobs = append(minJobs, runner.Job[float64]{
				Key: minKey(d.Name, w.Name),
				Run: func(context.Context) (float64, error) { return figures.OptimalMPKI(w, d.Scale), nil },
			})
		}
	}

	res := &repResult{Digests: map[string]string{}}
	var m *figures.Matrix
	var minSet *runner.Set[float64]
	err = res.measure(setupOnly, func() {
		m = figures.RunMatrixEnv(env, d.Name, benches, specs, sim.SingleOptions{Scale: d.Scale})
		if d.Optimal {
			minSet = runner.Run(context.Background(), minJobs, runner.Options{Workers: d.Workers})
		}
	})
	if err != nil || setupOnly {
		return res, err
	}

	instr := map[string]uint64{}
	for _, b := range p.Names {
		for _, pol := range d.Policies {
			key := singleKey(d.Name, b, pol)
			if m.Err(b, pol) != nil {
				res.Failed = append(res.Failed, key)
				continue
			}
			r := m.Get(b, pol)
			res.Digests[key] = digestSingle(r)
			res.Instructions += r.Instructions
			instr[b] = r.Instructions
		}
		if d.Optimal {
			key := minKey(d.Name, b)
			v, ok := minSet.Value(key)
			if !ok {
				res.Failed = append(res.Failed, key)
				continue
			}
			res.Digests[key] = digestFloat(v)
			// The capture run is one full pass of the benchmark's stream.
			res.Instructions += instr[b]
		}
	}
	return res, nil
}

// figuresSoloKey and figuresMixKey are the checkpoint keys
// figures.RunAdhocEnv journals its mix-panel cells under.
func figuresSoloKey(scale float64, llc cache.Config, bench string) string {
	return fmt.Sprintf("mc-single|s=%g|llc=%d.%d|%s", scale, llc.SizeBytes, llc.Ways, bench)
}

func figuresMixKey(scale float64, llc cache.Config, mix, policy string) string {
	return fmt.Sprintf("mc|s=%g|llc=%d.%d|%s|%s", scale, llc.SizeBytes, llc.Ways, mix, policy)
}

// mixMembers returns the distinct members of the plan's mixes in first
// appearance order (the order figures runs the solo denominators in).
func mixMembers(mixes []workloads.Mix) []string {
	var names []string
	seen := map[string]bool{}
	for _, m := range mixes {
		for _, n := range m.Members {
			if !seen[n] {
				seen[n] = true
				names = append(names, n)
			}
		}
	}
	return names
}

// runMixesUntraced runs one ad-hoc spec per policy over the drawn
// mixes. The specs share one Env and its checkpoint journal, as a
// cmd/experiments -checkpoint campaign would: the shared-LRU cells and
// solo denominators run once and later specs restore them. The journal
// is also where the per-cell multicore results are read back from,
// since the figure panel keeps only normalized weighted speedups.
func runMixesUntraced(p plan, workdir string, setupOnly bool) (*repResult, error) {
	d := p.Def
	ckpt, err := runner.OpenCheckpoint(filepath.Join(workdir, d.Name+".ckpt.jsonl"), false)
	if err != nil {
		return nil, err
	}
	defer ckpt.Close()
	env := &figures.Env{Workers: d.Workers, Checkpoint: ckpt}
	var specs []*exp.Resolved
	for _, pol := range d.Policies {
		r, err := exp.Spec{Policy: pol, Mixes: p.Names, Scale: d.Scale}.Resolve()
		if err != nil {
			return nil, err
		}
		specs = append(specs, r)
	}
	llc := mixLLC()

	res := &repResult{Digests: map[string]string{}}
	ws := map[string]map[string]float64{}
	err = res.measure(setupOnly, func() {
		for i, r := range specs {
			a := figures.RunAdhocEnv(env, r)
			ws[d.Policies[i]] = a.Mixes.WeightedSpeedup[a.Label]
		}
	})
	if err != nil || setupOnly {
		return res, err
	}
	for _, f := range env.Failures() {
		res.Failed = append(res.Failed, f.Key)
	}

	mixes := specs[0].Mixes
	instr := map[string]uint64{}
	for _, mix := range mixes {
		for _, pol := range append([]string{mixPolicyLRU}, d.Policies...) {
			var r sim.MulticoreResult
			if !ckpt.Lookup(figuresMixKey(d.Scale, llc, mix.Name, pol), &r) {
				continue
			}
			res.Digests[mixKey(d.Name, mix.Name, pol)] = digestMulti(r)
			for i, n := range mix.Members {
				res.Instructions += r.Instructions[i]
				instr[n] = r.Instructions[i]
			}
		}
		for _, pol := range d.Policies {
			if v, ok := ws[pol][mix.Name]; ok {
				res.Digests[wsKey(d.Name, mix.Name, pol)] = digestFloat(v)
			}
		}
	}
	for _, n := range mixMembers(mixes) {
		var ipc float64
		if ckpt.Lookup(figuresSoloKey(d.Scale, llc, n), &ipc) {
			res.Digests[soloKey(d.Name, n)] = digestFloat(ipc)
			res.Instructions += instr[n]
		}
	}
	return res, nil
}

// cellKeys lists every cell a plan checks, in run order.
func cellKeys(p plan) ([]string, error) {
	d := p.Def
	var keys []string
	if !d.Mixes {
		for _, b := range p.Names {
			for _, pol := range d.Policies {
				keys = append(keys, singleKey(d.Name, b, pol))
			}
			if d.Optimal {
				keys = append(keys, minKey(d.Name, b))
			}
		}
		return keys, nil
	}
	mixes, err := lookupMixes(p.Names)
	if err != nil {
		return nil, err
	}
	for _, n := range mixMembers(mixes) {
		keys = append(keys, soloKey(d.Name, n))
	}
	for _, mix := range mixes {
		keys = append(keys, mixKey(d.Name, mix.Name, mixPolicyLRU))
		for _, pol := range d.Policies {
			keys = append(keys, mixKey(d.Name, mix.Name, pol), wsKey(d.Name, mix.Name, pol))
		}
	}
	return keys, nil
}

// lookupMixes resolves Table IV mix names the way an ad-hoc spec does.
func lookupMixes(names []string) ([]workloads.Mix, error) {
	r, err := exp.Spec{Policy: mixPolicyLRU, Mixes: names}.Resolve()
	if err != nil {
		return nil, err
	}
	return r.Mixes, nil
}

// mixLLC is the shared LLC geometry mix_shared runs on: the paper's
// 8MB 16-way, which an ad-hoc spec without an llc field selects.
func mixLLC() cache.Config { return hier.LLCConfig(4) }
