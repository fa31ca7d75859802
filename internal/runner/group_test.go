package runner

import (
	"context"
	"errors"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"sdbp/internal/obs"
)

// squares is a group body that settles each key "kN" with N*N and
// records the key lists it was called with.
type squares struct {
	mu    sync.Mutex
	calls [][]string
	fail  map[string]int // key -> attempts left that fail
}

func (s *squares) run(_ context.Context, keys []string) []Outcome[int] {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.calls = append(s.calls, append([]string(nil), keys...))
	outs := make([]Outcome[int], len(keys))
	for i, k := range keys {
		if s.fail[k] > 0 {
			s.fail[k]--
			outs[i].Err = errors.New("transient " + k)
			continue
		}
		n := int(k[1] - '0')
		outs[i].Value = n * n
	}
	return outs
}

// TestGroupSettlesPerKey: a group's keys are checkpointed, counted and
// reported one by one, and a key already in the journal is restored
// instead of being passed to the group.
func TestGroupSettlesPerKey(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.jsonl")
	ck, err := OpenCheckpoint(path, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := ck.Record("k2", 4); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	var events []Event
	body := &squares{}
	set := RunGroups(context.Background(), []Group[int]{{Keys: []string{"k1", "k2", "k3"}, Run: body.run}},
		Options{Workers: 2, Checkpoint: ck, Obs: reg, Progress: func(ev Event) { events = append(events, ev) }})
	ck.Close()

	if want := [][]string{{"k1", "k3"}}; !reflect.DeepEqual(body.calls, want) {
		t.Errorf("group called with %v, want %v", body.calls, want)
	}
	for k, want := range map[string]int{"k1": 1, "k2": 4, "k3": 9} {
		if v, ok := set.Value(k); !ok || v != want {
			t.Errorf("%s = %d, %t; want %d", k, v, ok, want)
		}
	}
	if len(events) != 3 || events[2].Done != 3 || events[2].Total != 3 {
		t.Errorf("events = %+v, want one per key", events)
	}
	restored := 0
	for _, ev := range events {
		if ev.FromCheckpoint {
			restored++
			if ev.Key != "k2" {
				t.Errorf("restored %s, want k2", ev.Key)
			}
		}
	}
	if restored != 1 {
		t.Errorf("restored %d keys, want 1", restored)
	}
	for name, want := range map[string]uint64{
		obs.CtrJobsSubmitted: 3, obs.CtrJobsSucceeded: 2, obs.CtrJobsFromCheckpoint: 1,
	} {
		if got := reg.CounterValue(name); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if got := reg.Histogram(obs.HistJobSeconds).Count(); got != 2 {
		t.Errorf("job-seconds observations = %d, want 2 executed keys", got)
	}

	ck2, err := OpenCheckpoint(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer ck2.Close()
	for k, want := range map[string]int{"k1": 1, "k3": 9} {
		var v int
		if !ck2.Lookup(k, &v) || v != want {
			t.Errorf("journal %s = %d, want %d", k, v, want)
		}
	}
}

// TestGroupRetriesOnlyFailedKeys: a retry passes the group only the
// keys whose previous attempt failed.
func TestGroupRetriesOnlyFailedKeys(t *testing.T) {
	body := &squares{fail: map[string]int{"k2": 1, "k3": 5}}
	set := RunGroups(context.Background(), []Group[int]{{Keys: []string{"k1", "k2", "k3"}, Run: body.run}},
		Options{Workers: 1, Retries: 1, Backoff: time.Millisecond})
	if want := [][]string{{"k1", "k2", "k3"}, {"k2", "k3"}}; !reflect.DeepEqual(body.calls, want) {
		t.Errorf("attempts called with %v, want %v", body.calls, want)
	}
	if v, ok := set.Value("k2"); !ok || v != 4 {
		t.Errorf("k2 = %d, %t; want 4 after one retry", v, ok)
	}
	je := set.Errors["k3"]
	if je == nil || je.Attempts != 2 || !strings.Contains(je.Err.Error(), "transient k3") {
		t.Errorf("k3 error = %+v, want transient failure after 2 attempts", je)
	}
	if _, ok := set.Value("k1"); !ok || len(set.Errors) != 1 {
		t.Errorf("values %v errors %v", set.Values, set.Errors)
	}
}

// TestGroupTimeoutMarksEveryPendingKey: a group's budget is the
// per-key timeout times its pending keys, and running past it fails
// every pending key as timed out.
func TestGroupTimeoutMarksEveryPendingKey(t *testing.T) {
	// Three pending keys at 1s each get a 3s budget: the body sees a
	// deadline past two keys' worth and settles every key.
	const timeout = time.Second
	var budget time.Duration
	quick := func(ctx context.Context, keys []string) []Outcome[int] {
		if d, ok := ctx.Deadline(); ok {
			budget = time.Until(d)
		}
		return make([]Outcome[int], len(keys))
	}
	set := RunGroups(context.Background(), []Group[int]{{Keys: []string{"a", "b", "c"}, Run: quick}},
		Options{Workers: 1, Timeout: timeout})
	if len(set.Values) != 3 {
		t.Errorf("group with 3 keys failed: %v", set.Failed())
	}
	if budget <= 2*timeout || budget > 3*timeout {
		t.Errorf("group budget = %v, want 3 keys × %v", budget, timeout)
	}

	hang := func(ctx context.Context, keys []string) []Outcome[int] {
		<-ctx.Done()
		return make([]Outcome[int], len(keys))
	}
	reg := obs.NewRegistry()
	set = RunGroups(context.Background(), []Group[int]{{Keys: []string{"a", "b"}, Run: hang}},
		Options{Workers: 1, Timeout: 40 * time.Millisecond, Retries: 3, Obs: reg})
	if len(set.Errors) != 2 {
		t.Fatalf("errors = %v, want both keys", set.Errors)
	}
	for k, je := range set.Errors {
		if !je.TimedOut || je.Attempts != 1 {
			t.Errorf("%s: TimedOut=%t attempts=%d, want a timeout, not retried", k, je.TimedOut, je.Attempts)
		}
	}
	if got := reg.CounterValue(obs.CtrJobTimeouts); got != 2 {
		t.Errorf("timeouts = %d, want 2", got)
	}
}

// stackErr is an outcome error carrying a recovered panic's stack.
type stackErr struct{}

func (stackErr) Error() string      { return "lane fault" }
func (stackErr) PanicStack() string { return "goroutine 1 [running]:\nlane.go:42" }

// TestGroupPanicsStayPerKey: an outcome carrying a panic stack fails
// only its key, as a panic with that stack; a panic in the group body
// itself fails every key it was given.
func TestGroupPanicsStayPerKey(t *testing.T) {
	reg := obs.NewRegistry()
	groups := []Group[int]{
		{Keys: []string{"ok", "lane"}, Run: func(_ context.Context, keys []string) []Outcome[int] {
			return []Outcome[int]{{Value: 1}, {Err: stackErr{}}}
		}},
		{Keys: []string{"x", "y"}, Run: func(context.Context, []string) []Outcome[int] { panic("producer fault") }},
	}
	set := RunGroups(context.Background(), groups, Options{Workers: 2, Obs: reg})
	if v, ok := set.Value("ok"); !ok || v != 1 {
		t.Errorf("healthy key = %d, %t", v, ok)
	}
	je := set.Errors["lane"]
	if je == nil || je.Err.Error() != "panic: lane fault" || !strings.Contains(je.Stack, "lane.go:42") {
		t.Errorf("lane error = %+v, want the carried panic and stack", je)
	}
	for _, k := range []string{"x", "y"} {
		je := set.Errors[k]
		if je == nil || !strings.Contains(je.Err.Error(), "producer fault") || je.Stack == "" {
			t.Errorf("%s error = %+v, want the group panic with a stack", k, je)
		}
	}
	if got := reg.CounterValue(obs.CtrJobPanics); got != 3 {
		t.Errorf("panics = %d, want 3", got)
	}
}
