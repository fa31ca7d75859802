package sim

import (
	"time"

	"sdbp/internal/cache"
	"sdbp/internal/trace"
	"sdbp/internal/workloads"
)

// DriveWith runs one lane with pol over gen, a stand-in for a
// workload's stream.
func DriveWith(gen trace.Generator, pol cache.Policy) SingleResult {
	var opts SingleOptions
	opts.normalize()
	var l lane
	l.start(workloads.Workload{Name: "stand-in"}, func() cache.Policy { return pol }, opts.LLC, nil)
	drive(gen, opts, []*lane{&l}, time.Now())
	return l.res
}

// RunMulticoreWith is RunMulticore with gen, a stand-in for a
// benchmark's stream, on the given core.
func RunMulticoreWith(mix workloads.Mix, pol cache.Policy, opts MulticoreOptions, core int, gen trace.Generator) (MulticoreResult, error) {
	opts.normalize()
	cores, err := mixCores(mix, opts.Scale)
	if err != nil {
		return MulticoreResult{}, err
	}
	cores[core].gen = gen
	return runMulticore(mix.Name, pol, opts, cores)
}
