package sim

import (
	"time"

	"sdbp/internal/cache"
	"sdbp/internal/trace"
	"sdbp/internal/workloads"
)

// RunFanoutWith is RunFanout with the producer placement chosen by the
// test instead of the host's CPU count.
func RunFanoutWith(w workloads.Workload, opts SingleOptions, lanes []Lane, concurrent bool) []LaneResult {
	return runFanout(w, opts, lanes, concurrent)
}

// DriveWith runs one lane with pol over gen, a stand-in for a
// workload's stream, with the producer placement chosen by the test.
func DriveWith(gen trace.Generator, pol cache.Policy, concurrent bool) SingleResult {
	var opts SingleOptions
	opts.normalize()
	var l lane
	l.start(workloads.Workload{Name: "stand-in"}, func() cache.Policy { return pol }, opts.LLC, nil)
	drive(newProducer(gen, opts), opts, []*lane{&l}, concurrent, time.Now())
	return l.res
}
