package sim_test

import (
	"errors"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"sdbp/internal/cache"
	"sdbp/internal/exp"
	"sdbp/internal/mem"
	"sdbp/internal/policy/policytest"
	"sdbp/internal/probe"
	"sdbp/internal/sim"
	"sdbp/internal/trace"
	"sdbp/internal/workloads"
)

// stripTiming strips the wall-clock and pass-accounting fields, which a
// shared pass legitimately changes, from a result.
func stripTiming(r sim.SingleResult) sim.SingleResult {
	r.Duration = 0
	r.FilterPasses = 0
	return r
}

// TestFanoutMatchesSeparateRuns is the fan-out differential: one pass
// fanned out to every registry policy spelling, plus lanes that differ
// only in LLC geometry, must reproduce K separate RunSingle calls
// byte for byte — on a memoized stream and on one above the stream
// memo's cap (a generated one), and with every lane probed (interval
// series and per-PC tables included).
func TestFanoutMatchesSeparateRuns(t *testing.T) {
	w, err := workloads.ByName("456.hmmer")
	if err != nil {
		t.Fatal(err)
	}
	exprs := policytest.Expressions()
	sizes := []int{512 << 10, 8 << 20}
	for _, tc := range []struct {
		name   string
		scale  float64
		replay bool // stream served from the memo
		probe  *probe.Config
	}{
		{"memoized", 0.02, true, nil},
		{"above-memo-cap", 0.202, false, nil},
		{"probed", 0.02, true, &probe.Config{Interval: 7000, TopK: 5}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if !tc.replay && testing.Short() {
				t.Skip("generated stream: 44 full runs; CI races it in its own step without -short")
			}
			_, replay := w.Generator(tc.scale).(*trace.Replay)
			if replay != tc.replay {
				t.Fatalf("scale %g: memo replay = %t, want %t", tc.scale, replay, tc.replay)
			}
			opts := sim.SingleOptions{Scale: tc.scale, CaptureStream: true, Probe: tc.probe}
			var lanes []sim.Lane
			var want []sim.SingleResult
			for _, e := range exprs {
				p := exp.MustResolvePolicy(e)
				lanes = append(lanes, sim.Lane{Policy: func() cache.Policy { return p.Make(1) }})
				want = append(want, sim.RunSingle(w, p.Make(1), opts))
			}
			lru := exp.MustResolvePolicy("LRU")
			for _, size := range sizes {
				llc := cache.Config{Name: "LLC", SizeBytes: size, Ways: 16}
				lanes = append(lanes, sim.Lane{Policy: func() cache.Policy { return lru.Make(1) }, LLC: llc})
				o := opts
				o.LLC = llc
				want = append(want, sim.RunSingle(w, lru.Make(1), o))
			}
			got := sim.RunFanout(w, opts, lanes)
			if len(got) != len(lanes) {
				t.Fatalf("%d results for %d lanes", len(got), len(lanes))
			}
			passes := uint64(0)
			for i, r := range got {
				if r.Err != nil {
					t.Fatalf("lane %d: %v", i, r.Err)
				}
				passes += r.Result.FilterPasses
				if (r.Result.Probe == nil) != (tc.probe == nil) {
					t.Fatalf("lane %d: probe series present = %t, want %t", i, r.Result.Probe != nil, tc.probe != nil)
				}
				if !reflect.DeepEqual(stripTiming(r.Result), stripTiming(want[i])) {
					t.Errorf("lane %d (%s): fan-out result differs from RunSingle", i, want[i].Policy)
				}
			}
			if passes != 1 {
				t.Errorf("results account for %d passes, want 1", passes)
			}
		})
	}
}

// midStreamPanic is an LRU policy that panics on its nth access.
type midStreamPanic struct {
	cache.Policy
	n int
}

func (p *midStreamPanic) OnAccess(set uint32, a mem.Access) {
	if p.n--; p.n == 0 {
		panic("injected: mid-stream policy fault")
	}
	p.Policy.OnAccess(set, a)
}

// TestFanoutLanePanicIsolated: a lane whose policy panics at
// construction or mid-stream fails alone, with the panic's value and
// stack, while its siblings still match their separate runs.
func TestFanoutLanePanicIsolated(t *testing.T) {
	w, err := workloads.ByName("456.hmmer")
	if err != nil {
		t.Fatal(err)
	}
	opts := sim.SingleOptions{Scale: 0.02}
	lru, smp := exp.MustResolvePolicy("LRU"), exp.MustResolvePolicy("Sampler")
	lanes := []sim.Lane{
		{Policy: func() cache.Policy { return lru.Make(1) }},
		{Policy: func() cache.Policy { panic("injected: bad policy configuration") }},
		{Policy: func() cache.Policy { return &midStreamPanic{Policy: lru.Make(1), n: 1000} }},
		{Policy: func() cache.Policy { return smp.Make(1) }},
	}
	want := []sim.SingleResult{
		sim.RunSingle(w, lru.Make(1), opts), {}, {}, sim.RunSingle(w, smp.Make(1), opts),
	}
	got := sim.RunFanout(w, opts, lanes)
	for _, i := range []int{0, 3} {
		if got[i].Err != nil {
			t.Fatalf("healthy lane %d failed: %v", i, got[i].Err)
		}
		if !reflect.DeepEqual(stripTiming(got[i].Result), stripTiming(want[i])) {
			t.Errorf("healthy lane %d differs from its separate run", i)
		}
	}
	for i, site := range map[int]string{1: "TestFanoutLanePanicIsolated", 2: "(*midStreamPanic).OnAccess"} {
		var p *sim.Panic
		if !errors.As(got[i].Err, &p) {
			t.Fatalf("lane %d error = %v, want a *sim.Panic", i, got[i].Err)
		}
		if !strings.Contains(p.Error(), "injected") || !strings.Contains(p.Stack, site) {
			t.Errorf("lane %d panic %q lost its value or its stack (want frame %s):\n%s",
				i, p.Error(), site, p.Stack)
		}
	}
}

// TestRunSinglePanicCarriesStack: RunSingle re-raises a policy panic as
// a *sim.Panic whose stack is the original panic site.
func TestRunSinglePanicCarriesStack(t *testing.T) {
	w, err := workloads.ByName("456.hmmer")
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		p, ok := recover().(*sim.Panic)
		if !ok {
			t.Fatalf("RunSingle did not panic with a *sim.Panic")
		}
		if !strings.Contains(p.Stack, "(*midStreamPanic).OnAccess") {
			t.Errorf("stack lost the panic site:\n%s", p.Stack)
		}
	}()
	sim.RunSingle(w, &midStreamPanic{Policy: exp.MustResolvePolicy("LRU").Make(1), n: 10}, sim.SingleOptions{Scale: 0.02})
}

// panicGen is a stream whose second batch panics.
type panicGen struct{ batches int }

func (g *panicGen) Reset() {}

func (g *panicGen) NextBatch(dst []mem.Access) int {
	if g.batches++; g.batches > 1 {
		panic("injected: generator fault")
	}
	for i := range dst {
		dst[i] = mem.Access{Addr: uint64(i) << 6, Gap: 3}
	}
	return len(dst)
}

// TestProducerPanicCarriesStack: a panic in the generator, which runs
// on the drive's producer goroutine, reaches the caller as a *sim.Panic
// with the generator's frame.
func TestProducerPanicCarriesStack(t *testing.T) {
	t.Run("goroutine", func(t *testing.T) {
		defer func() {
			p, ok := recover().(*sim.Panic)
			if !ok {
				t.Fatalf("drive did not panic with a *sim.Panic")
			}
			if !strings.Contains(p.Error(), "injected") || !strings.Contains(p.Stack, "(*panicGen).NextBatch") {
				t.Errorf("panic %q lost its value or its stack:\n%s", p.Error(), p.Stack)
			}
		}()
		sim.DriveWith(&panicGen{}, exp.MustResolvePolicy("LRU").Make(1))
	})
}

// TestMulticoreProducerPanicIsolated: a panic in one mix core's
// generator comes back from RunMulticore as an error carrying the
// generator's frame, instead of killing the process from the core's
// producer goroutine. Every core's producer has exited once
// RunMulticore returns, after a failed run and after a healthy one
// (whose restarting streams never end on their own).
func TestMulticoreProducerPanicIsolated(t *testing.T) {
	before := runtime.NumGoroutine()
	mix := workloads.Mixes()[0]
	lru := exp.MustResolvePolicy("LRU")
	opts := sim.MulticoreOptions{Scale: 0.01}
	// At this scale every core's first pass outlasts panicGen's one
	// good block, so the merge reaches the panic.
	_, err := sim.RunMulticoreWith(mix, lru.Make(4), opts, 2, &panicGen{})
	var p *sim.Panic
	if !errors.As(err, &p) {
		t.Fatalf("RunMulticore error = %v, want one wrapping a *sim.Panic", err)
	}
	if !strings.Contains(err.Error(), "core 2") || !strings.Contains(p.Stack, "(*panicGen).NextBatch") {
		t.Errorf("error %q lost its core or its stack:\n%s", err, p.Stack)
	}
	waitGoroutines(t, before)
	if _, err := sim.RunMulticore(mix, lru.Make(4), opts); err != nil {
		t.Fatal(err)
	}
	waitGoroutines(t, before)
}

// waitGoroutines fails the test unless the goroutine count falls back
// to n within a second.
func waitGoroutines(t *testing.T, n int) {
	t.Helper()
	for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > n; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the run, %d before: a core's producer leaked", runtime.NumGoroutine(), n)
		}
		time.Sleep(time.Millisecond)
	}
}
