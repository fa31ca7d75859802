// Package runner is the shared job-execution engine behind every
// figure, table and sweep in the evaluation harness. It replaces the
// hand-rolled sync.WaitGroup fan-outs that used to live in each figure
// with one pool that provides:
//
//   - bounded workers with context cancellation and a per-job timeout,
//   - panic isolation: a recovered job becomes a structured JobError
//     (job key, stack, duration) instead of crashing the process,
//   - bounded retry with exponential backoff for transient failures,
//   - deterministic checkpointing: completed results are journaled to
//     a JSON-lines file keyed by job key, so an interrupted campaign
//     resumes by skipping finished cells,
//   - progress events (jobs done/total, ETA) for long campaigns,
//   - grouped executions (RunGroups): one run settles several keys,
//     each still checkpointed, counted and reported as its own job.
//
// Jobs are deterministic simulations, so a job key fully identifies
// its result: keys embed the section, stream scale and cache geometry
// (see the figures package) and act as the checkpoint cache key.
package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"sync"
	"time"

	"sdbp/internal/obs"
)

// Job is one unit of work. Key must be unique within a Run call and
// stable across process restarts (it keys the checkpoint journal).
type Job[T any] struct {
	Key string
	Run func(ctx context.Context) (T, error)
	// Span, when non-nil, is the job's trace span: each attempt becomes
	// an "attempt" child annotated with the try number and outcome
	// (ok, error, panic, timeout, drained). The runner never ends Span
	// itself — the caller owns the job span's lifetime.
	Span *obs.Span
}

// JobError reports one job's failure.
type JobError struct {
	// Key identifies the failed job.
	Key string
	// Err is the underlying error; for a recovered panic it wraps the
	// panic value.
	Err error
	// Stack is the goroutine stack at the point of a recovered panic,
	// empty for ordinary errors.
	Stack string
	// Duration is how long the final attempt ran.
	Duration time.Duration
	// Attempts is how many times the job was tried.
	Attempts int
	// TimedOut marks a job that exceeded the per-job timeout. The
	// job's goroutine may still be running (simulations are not
	// preemptible); it is abandoned and its result discarded.
	TimedOut bool
}

func (e *JobError) Error() string {
	return fmt.Sprintf("job %s: %v", e.Key, e.Err)
}

func (e *JobError) Unwrap() error { return e.Err }

// Event reports one job settling (completed, failed, or restored from
// the checkpoint).
type Event struct {
	// Key identifies the job.
	Key string
	// Done and Total count settled jobs in this Run call.
	Done, Total int
	// FromCheckpoint marks a result restored from the journal.
	FromCheckpoint bool
	// Err is non-nil when the job failed.
	Err *JobError
	// Elapsed is wall time since Run started.
	Elapsed time.Duration
	// ETA estimates remaining wall time from the live-job completion
	// rate; zero until at least one job has actually executed.
	ETA time.Duration
}

// Options tunes a Run call. The zero value is usable: NumCPU workers,
// no timeout, no retries, no checkpoint.
type Options struct {
	// Workers bounds concurrency; 0 means runtime.NumCPU().
	Workers int
	// Timeout bounds each job attempt; 0 means no limit.
	Timeout time.Duration
	// Retries is how many extra attempts a failed job gets. Timeouts
	// and context cancellation are never retried.
	Retries int
	// Backoff is the base delay between attempts, doubling each retry;
	// 0 means 100ms.
	Backoff time.Duration
	// Checkpoint, when non-nil, is consulted before running a job and
	// records every success.
	Checkpoint *Checkpoint
	// Progress, when non-nil, is called after each job settles. It may
	// be called from multiple goroutines; Run serializes the calls.
	Progress func(Event)
	// Obs, when non-nil, receives job accounting (the obs.Ctr*
	// counters and the obs.HistJobSeconds histogram) and the aggregate
	// simulator counters of every live successful result that
	// implements obs.Observable. Checkpoint-restored results are
	// counted but not observed: sim_* counters cover simulated work
	// only.
	Obs *obs.Registry
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.NumCPU()
	}
	if o.Backoff <= 0 {
		o.Backoff = 100 * time.Millisecond
	}
	return o
}

// Set holds a Run call's outcome: one entry per job key, in Values on
// success and Errors on failure.
type Set[T any] struct {
	Values map[string]T
	Errors map[string]*JobError
}

// Value returns a job's result and whether it succeeded.
func (s *Set[T]) Value(key string) (T, bool) {
	v, ok := s.Values[key]
	return v, ok
}

// Err returns a job's failure, nil on success.
func (s *Set[T]) Err(key string) error {
	if e, ok := s.Errors[key]; ok {
		return e
	}
	return nil
}

// Failed returns every failure sorted by job key.
func (s *Set[T]) Failed() []*JobError {
	out := make([]*JobError, 0, len(s.Errors))
	for _, e := range s.Errors {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// Group is one execution that settles several keys at once, such as
// a simulation pass shared by several cells. Keys must be unique across
// a RunGroups call and stable across restarts, exactly like Job keys:
// checkpoint records, progress events, job counters and failures all
// stay per key.
type Group[T any] struct {
	Keys []string
	// Run settles the keys it is given — the group's keys still pending
	// after checkpoint lookup, and on a retry only those that failed —
	// returning one Outcome per key, in the same order. A panic or
	// timeout fails every key it was given.
	Run func(ctx context.Context, keys []string) []Outcome[T]
	// Span, when non-nil, is the group's trace span, as for Job.Span.
	Span *obs.Span
}

// Outcome is one key's result from a Group execution. An Err that
// carries a recovered panic's stack (a PanicStack() string method) is
// reported as a panic with that stack.
type Outcome[T any] struct {
	Value T
	Err   error
}

// Run executes the jobs on a bounded pool and returns when every job
// has settled. A cancelled context stops new work; queued jobs drain
// with a cancellation error rather than blocking. Run never panics on
// a panicking job.
func Run[T any](ctx context.Context, jobs []Job[T], opts Options) *Set[T] {
	groups := make([]Group[T], len(jobs))
	for i, j := range jobs {
		run := j.Run
		groups[i] = Group[T]{
			Keys: []string{j.Key},
			Span: j.Span,
			Run: func(ctx context.Context, _ []string) []Outcome[T] {
				v, err := run(ctx)
				return []Outcome[T]{{v, err}}
			},
		}
	}
	return RunGroups(ctx, groups, opts)
}

// RunGroups is Run for executions that each settle several keys. The
// per-job contract holds per key: a key restored from the checkpoint
// is not passed to its group, every key settles with one event and
// one counter update, and successful results are journaled per key. A
// group's timeout is Options.Timeout times the keys it is given, and
// a retry re-runs only the keys that failed.
func RunGroups[T any](ctx context.Context, groups []Group[T], opts Options) *Set[T] {
	opts = opts.withDefaults()
	total := 0
	for _, g := range groups {
		total += len(g.Keys)
	}
	set := &Set[T]{
		Values: make(map[string]T, total),
		Errors: make(map[string]*JobError),
	}
	start := time.Now()
	opts.Obs.Counter(obs.CtrJobsSubmitted).Add(uint64(total))

	var mu sync.Mutex
	done, live := 0, 0
	emit := func(key string, fromCkpt bool, jerr *JobError) {
		done++
		if !fromCkpt {
			live++
		}
		switch {
		case fromCkpt:
			opts.Obs.Counter(obs.CtrJobsFromCheckpoint).Inc()
		case jerr != nil:
			opts.Obs.Counter(obs.CtrJobsFailed).Inc()
			if jerr.TimedOut {
				opts.Obs.Counter(obs.CtrJobTimeouts).Inc()
			}
			if jerr.Stack != "" {
				opts.Obs.Counter(obs.CtrJobPanics).Inc()
			}
		default:
			opts.Obs.Counter(obs.CtrJobsSucceeded).Inc()
		}
		if opts.Progress == nil {
			return
		}
		elapsed := time.Since(start)
		var eta time.Duration
		if live > 0 && done < total {
			eta = time.Duration(float64(elapsed) / float64(live) * float64(total-done))
		}
		opts.Progress(Event{
			Key: key, Done: done, Total: total,
			FromCheckpoint: fromCkpt, Err: jerr,
			Elapsed: elapsed, ETA: eta,
		})
	}

	// Restore checkpointed results first so the pool only sees real work.
	var pending []Group[T]
	for _, g := range groups {
		var keys []string
		for _, k := range g.Keys {
			var v T
			if opts.Checkpoint.Lookup(k, &v) {
				mu.Lock()
				set.Values[k] = v
				emit(k, true, nil)
				mu.Unlock()
				continue
			}
			keys = append(keys, k)
		}
		if len(keys) > 0 {
			g.Keys = keys
			pending = append(pending, g)
		}
	}

	ch := make(chan Group[T])
	var wg sync.WaitGroup
	for i := 0; i < opts.Workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for g := range ch {
				if err := ctx.Err(); err != nil {
					// Drain: account for the keys without running them.
					opts.Obs.Counter(obs.CtrJobsDrained).Add(uint64(len(g.Keys)))
					g.Span.SetAttr("outcome", "drained")
					mu.Lock()
					for _, k := range g.Keys {
						jerr := &JobError{Key: k, Err: err}
						set.Errors[k] = jerr
						emit(k, false, jerr)
					}
					mu.Unlock()
					continue
				}
				groupStart := time.Now()
				vals, errs := attempt(ctx, g, opts)
				// Each executed key is one observation; the group's wall
				// time is shared evenly, so the histogram still sums to
				// time spent executing.
				share := time.Since(groupStart).Seconds() / float64(len(g.Keys))
				for i := range g.Keys {
					opts.Obs.Histogram(obs.HistJobSeconds).Observe(share)
					if errs[i] == nil && opts.Obs != nil {
						// Fold the result's aggregate simulator counters into
						// the registry at the experiment boundary, keeping
						// the per-access path metric-free.
						if o, ok := any(vals[i]).(obs.Observable); ok {
							o.ObserveInto(opts.Obs)
						}
					}
				}
				mu.Lock()
				for i, k := range g.Keys {
					if errs[i] != nil {
						set.Errors[k] = errs[i]
					} else {
						set.Values[k] = vals[i]
					}
					emit(k, false, errs[i])
				}
				mu.Unlock()
				for i, k := range g.Keys {
					if errs[i] == nil {
						// Journal outside any caller-visible path; a write
						// failure must not fail the job.
						_ = opts.Checkpoint.Record(k, vals[i])
					}
				}
			}
		}()
	}
	for _, g := range pending {
		ch <- g
	}
	close(ch)
	wg.Wait()
	return set
}

// attempt runs one group with bounded retries, returning each key's
// value or failure in key order. Each try is traced as an "attempt"
// child of the group's span (when it carries one), annotated with the
// first failure's outcome.
func attempt[T any](ctx context.Context, g Group[T], opts Options) ([]T, []*JobError) {
	vals := make([]T, len(g.Keys))
	errs := make([]*JobError, len(g.Keys))
	todo := make([]int, len(g.Keys))
	for i := range todo {
		todo[i] = i
	}
	for try := 0; ; try++ {
		sp := g.Span.StartChild("attempt")
		sp.SetAttr("try", strconv.Itoa(try+1))
		keys := make([]string, len(todo))
		for i, idx := range todo {
			keys[i] = g.Keys[idx]
		}
		outVals, outErrs := runOnce(ctx, g, keys, opts.Timeout*time.Duration(len(keys)))
		var retry []int
		var first *JobError
		for i, idx := range todo {
			vals[idx], errs[idx] = outVals[i], outErrs[i]
			jerr := outErrs[i]
			if jerr == nil {
				continue
			}
			jerr.Attempts = try + 1
			if first == nil {
				first = jerr
			}
			if !jerr.TimedOut && ctx.Err() == nil && !errors.Is(jerr.Err, context.Canceled) {
				retry = append(retry, idx)
			}
		}
		if first == nil {
			sp.SetAttr("outcome", "ok")
			sp.End()
			return vals, errs
		}
		switch {
		case first.TimedOut:
			sp.SetAttr("outcome", "timeout")
		case first.Stack != "":
			sp.SetAttr("outcome", "panic")
		default:
			sp.SetAttr("outcome", "error")
		}
		sp.SetAttr("error", first.Err.Error())
		if try >= opts.Retries || len(retry) == 0 {
			sp.End()
			return vals, errs
		}
		sp.SetAttr("retrying", "true")
		sp.End()
		opts.Obs.Counter(obs.CtrJobRetries).Add(uint64(len(retry)))
		select {
		case <-ctx.Done():
			return vals, errs
		case <-time.After(opts.Backoff * time.Duration(1<<try)):
		}
		todo = retry
	}
}

// stackCarrier is a panic value, or an Outcome error, carrying the
// stack of a panic recovered elsewhere: across a goroutine or out of
// an isolated part of a group.
type stackCarrier interface{ PanicStack() string }

// runOnce executes a single attempt of a group over keys, with panic
// recovery and the attempt's timeout, returning each key's value or
// failure.
func runOnce[T any](ctx context.Context, g Group[T], keys []string, timeout time.Duration) ([]T, []*JobError) {
	jctx := ctx
	if timeout > 0 {
		var cancel context.CancelFunc
		jctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}

	type outcome struct {
		outs  []Outcome[T]
		err   error
		stack string
	}
	ch := make(chan outcome, 1)
	start := time.Now()
	go func() {
		defer func() {
			if r := recover(); r != nil {
				stack := string(debug.Stack())
				if sc, ok := r.(stackCarrier); ok {
					stack = sc.PanicStack()
				}
				ch <- outcome{err: fmt.Errorf("panic: %v", r), stack: stack}
			}
		}()
		ch <- outcome{outs: g.Run(jctx, keys)}
	}()

	vals := make([]T, len(keys))
	errs := make([]*JobError, len(keys))
	fail := func(i int, err error, stack string, timedOut bool) {
		errs[i] = &JobError{
			Key: keys[i], Err: err, Stack: stack,
			TimedOut: timedOut, Duration: time.Since(start),
		}
	}
	select {
	case o := <-ch:
		for i := range keys {
			switch {
			case o.err != nil:
				fail(i, o.err, o.stack, false)
			case len(o.outs) != len(keys):
				fail(i, fmt.Errorf("group returned %d outcomes for %d keys", len(o.outs), len(keys)), "", false)
			case o.outs[i].Err != nil:
				err := o.outs[i].Err
				if sc, ok := err.(stackCarrier); ok {
					fail(i, fmt.Errorf("panic: %v", err), sc.PanicStack(), false)
				} else {
					fail(i, err, "", false)
				}
			default:
				vals[i] = o.outs[i].Value
			}
		}
	case <-jctx.Done():
		// The group's goroutine is abandoned; simulations are not
		// preemptible, so it runs to completion and its late result is
		// dropped (the outcome channel is buffered).
		for i := range keys {
			fail(i, jctx.Err(), "", ctx.Err() == nil)
		}
	}
	return vals, errs
}
