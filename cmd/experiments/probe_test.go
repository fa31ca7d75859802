package main

// Telemetry-export tests: the -interval/-trace-out/-topk acceptance
// checks. The determinism case runs the probe pass twice at scale 0.01
// and byte-compares both export files across GOMAXPROCS settings.

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"sdbp/internal/obs"
	"sdbp/internal/probe"
	"sdbp/internal/workloads"
)

// TestProbeFlagValidation pins the flag contract: -interval and
// -trace-out only make sense together, and half a pair is a usage
// error (exit 2), not a silent no-op.
func TestProbeFlagValidation(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"interval without trace-out", []string{"-only", "table1", "-interval", "1000"}, "-interval requires -trace-out"},
		{"trace-out without interval", []string{"-only", "table1", "-trace-out", "x.jsonl"}, "-trace-out requires -interval"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != 2 {
				t.Errorf("exit %d, want 2", code)
			}
			if !strings.Contains(stderr.String(), tc.want) {
				t.Errorf("stderr %q does not mention %q", stderr.String(), tc.want)
			}
		})
	}
}

// runProbeExport drives the command with telemetry enabled at the given
// scale and returns the raw JSONL and trace-event bytes.
func runProbeExport(t *testing.T, scale string) (jsonl, trace []byte) {
	t.Helper()
	out := filepath.Join(t.TempDir(), "probe.jsonl")
	args := []string{
		"-only", "table1", "-quiet", "-scale", scale,
		"-interval", "20000", "-topk", "5", "-trace-out", out,
	}
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("experiments %v exited %d\nstderr:\n%s", args, code, stderr.String())
	}
	jsonl, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	trace, err = os.ReadFile(tracePath(out))
	if err != nil {
		t.Fatal(err)
	}
	return jsonl, trace
}

// TestProbeExportDeterministic is the acceptance test: the exported
// interval series must be byte-identical across GOMAXPROCS=8 and
// GOMAXPROCS=1 — job scheduling must not reorder or perturb the
// telemetry.
func TestProbeExportDeterministic(t *testing.T) {
	prev := runtime.GOMAXPROCS(8)
	j1, t1 := runProbeExport(t, goldenScale)
	runtime.GOMAXPROCS(1)
	j2, t2 := runProbeExport(t, goldenScale)
	runtime.GOMAXPROCS(prev)

	if !bytes.Equal(j1, j2) {
		t.Error("interval JSONL differs between GOMAXPROCS=8 and GOMAXPROCS=1")
	}
	if !bytes.Equal(t1, t2) {
		t.Error("trace events differ between GOMAXPROCS=8 and GOMAXPROCS=1")
	}

	// The JSONL must round-trip: one series per subset benchmark, each
	// internally reconciled (PC sums == aggregate accuracy).
	series, err := probe.ReadJSONL(bytes.NewReader(j1))
	if err != nil {
		t.Fatalf("exported JSONL does not parse: %v", err)
	}
	if want := len(workloads.Subset()); len(series) != want {
		t.Fatalf("%d series, want %d (one per subset benchmark)", len(series), want)
	}
	for i := range series {
		s := &series[i]
		pred, pos, fp, _ := s.PCTotals()
		if pred != s.Run.Predictions || pos != s.Run.Positives || fp != s.Run.FalsePositives {
			t.Errorf("%s: per-PC sums (%d,%d,%d) != run accuracy (%d,%d,%d)",
				s.Run.Benchmark, pred, pos, fp, s.Run.Predictions, s.Run.Positives, s.Run.FalsePositives)
		}
	}
}

// TestProbeManifestEntries checks the run manifest records the probe
// pass: its config in the deterministic section and its aggregates as
// sim_probe_* counters.
func TestProbeManifestEntries(t *testing.T) {
	out := filepath.Join(t.TempDir(), "probe.jsonl")
	m, _ := runManifest(t, "-only", "table1", "-scale", goldenScale,
		"-interval", "20000", "-topk", "5", "-trace-out", out)
	if got := m.Sim.Config["probe_interval"]; got != "20000" {
		t.Errorf("probe_interval = %q, want 20000", got)
	}
	if got := m.Sim.Config["probe_topk"]; got != "5" {
		t.Errorf("probe_topk = %q, want 5", got)
	}
	c := func(name string) uint64 { return m.Sim.Counters[obs.SimPrefix+name] }
	if c("probe_runs") != uint64(len(workloads.Subset())) {
		t.Errorf("sim_probe_runs = %d, want %d", c("probe_runs"), len(workloads.Subset()))
	}
	if c("probe_intervals") == 0 || c("probe_pc_rows") == 0 {
		t.Errorf("probe aggregates empty: intervals=%d pc_rows=%d",
			c("probe_intervals"), c("probe_pc_rows"))
	}

	// Without -interval, the manifest must not mention the probe pass.
	m2, _ := runManifest(t, "-only", "table1", "-scale", goldenScale)
	if _, ok := m2.Sim.Config["probe_interval"]; ok {
		t.Error("probe_interval present in a run without -interval")
	}
	if _, ok := m2.Sim.Counters[obs.SimPrefix+"probe_runs"]; ok {
		t.Error("sim_probe_runs present in a run without -interval")
	}
}

// updateProbe rewrites the probe-series golden from this run.
var updateProbe = flag.Bool("update-probe", false, "rewrite testdata/probe files from this run")

// TestProbeExportGolden byte-compares the introspection pass's exports
// (interval JSONL and Chrome trace events) against testdata/probe, so a
// change to how probed runs are driven cannot move a single interval
// boundary, counter or per-PC row unnoticed. The golden scale never
// fills the 2MB LLC, so a second input at scale 0.02 (the smallest
// measured scale at which a series, 429.mcf, evicts and predicts dead
// blocks) pins the block cut where predictions happen.
// Regenerate after an intentional change with
//
//	go test ./cmd/experiments -run TestProbeExportGolden -update-probe
func TestProbeExportGolden(t *testing.T) {
	for _, tc := range []struct{ scale, dir string }{
		{goldenScale, filepath.Join("testdata", "probe")},
		{"0.02", filepath.Join("testdata", "probe", "scale0.02")},
	} {
		t.Run("scale"+tc.scale, func(t *testing.T) {
			jsonl, trace := runProbeExport(t, tc.scale)
			for _, f := range []struct {
				name string
				got  []byte
			}{{"series.jsonl", jsonl}, {"series.trace.json", trace}} {
				path := filepath.Join(tc.dir, f.name)
				if *updateProbe {
					if err := os.MkdirAll(tc.dir, 0o755); err != nil {
						t.Fatal(err)
					}
					if err := os.WriteFile(path, f.got, 0o644); err != nil {
						t.Fatal(err)
					}
					continue
				}
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("no probe golden (run with -update-probe to create): %v", err)
				}
				if !bytes.Equal(f.got, want) {
					t.Errorf("%s differs from %s\n%s", f.name, path, firstDiff(string(want), string(f.got)))
				}
			}
		})
	}
}
