package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// results builds a labeled sample set for one benchmark.
func results(name, label string, allocs float64, ns ...float64) []Result {
	var out []Result
	for _, v := range ns {
		a := allocs
		out = append(out, Result{Name: name, Label: label, Iterations: 100, NsPerOp: v, AllocsPerOp: &a})
	}
	return out
}

func writeJSON(t *testing.T, name string, v any) string {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestCompareFlagsInjectedRegression is the acceptance criterion: a
// synthetic slowdown well past the noise band must be flagged, and the
// command must exit non-zero with a verdict artifact naming it.
func TestCompareFlagsInjectedRegression(t *testing.T) {
	baseline := append(
		results("BenchmarkLLCAccess", "after", 0, 50, 52, 51, 49, 53),
		results("BenchmarkCampaign", "after", 58, 40e6, 41e6, 39e6)...,
	)
	// LLCAccess injected 40% slower; Campaign unchanged.
	current := append(
		results("BenchmarkLLCAccess", "current", 0, 70, 72, 71),
		results("BenchmarkCampaign", "current", 58, 40.5e6, 39.5e6, 40e6)...,
	)
	basePath := writeJSON(t, "base.json", baseline)
	curPath := writeJSON(t, "cur.json", current)
	verdictPath := filepath.Join(t.TempDir(), "verdict.json")

	var stdout, stderr bytes.Buffer
	code := run([]string{"-baseline", basePath, "-current", curPath, "-out", verdictPath}, nil, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit %d, want 1 (regression)\nstdout: %s\nstderr: %s", code, stdout.String(), stderr.String())
	}
	if !strings.Contains(stdout.String(), "REGRESSION") {
		t.Errorf("summary does not flag the regression:\n%s", stdout.String())
	}

	data, err := os.ReadFile(verdictPath)
	if err != nil {
		t.Fatal(err)
	}
	var v Verdict
	if err := json.Unmarshal(data, &v); err != nil {
		t.Fatal(err)
	}
	if v.Regressions != 1 {
		t.Errorf("verdict counts %d regressions, want 1", v.Regressions)
	}
	for _, c := range v.Benchmarks {
		switch c.Name {
		case "BenchmarkLLCAccess":
			if !c.Regression {
				t.Error("injected 40% slowdown not flagged")
			}
		case "BenchmarkCampaign":
			if c.Regression {
				t.Errorf("steady benchmark flagged: %s", c.Reason)
			}
		}
	}
}

// TestCompareCleanRunPasses: within-noise jitter exits 0.
func TestCompareCleanRunPasses(t *testing.T) {
	baseline := results("BenchmarkLLCAccess", "after", 0, 50, 52, 51)
	current := results("BenchmarkLLCAccess", "current", 0, 53, 51, 52)
	var stdout, stderr bytes.Buffer
	code := run([]string{
		"-baseline", writeJSON(t, "base.json", baseline),
		"-current", writeJSON(t, "cur.json", current),
	}, nil, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d, want 0\nstdout: %s\nstderr: %s", code, stdout.String(), stderr.String())
	}
	if !strings.Contains(stdout.String(), "no regressions") {
		t.Errorf("missing all-clear:\n%s", stdout.String())
	}
}

// TestCompareNoiseWidensThreshold: a 15% slowdown trips the default
// 10% floor on a tight baseline but is absorbed by a baseline whose
// own spread covers it.
func TestCompareNoiseWidensThreshold(t *testing.T) {
	tight := results("BenchmarkX", "after", 0, 100, 101, 100, 99, 100)
	noisy := results("BenchmarkX", "after", 0, 80, 100, 120, 95, 105)
	current := results("BenchmarkX", "current", 0, 115, 115, 115)

	v, err := Compare(tight, current, 0.10, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Benchmarks[0].Regression {
		t.Errorf("tight baseline: +15%% not flagged (threshold %.3f)", v.Benchmarks[0].Threshold)
	}
	v, err = Compare(noisy, current, 0.10, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	if v.Benchmarks[0].Regression {
		t.Errorf("noisy baseline (spread 40%%): +15%% flagged despite noise-adjusted threshold %.3f", v.Benchmarks[0].Threshold)
	}
}

// TestCompareAllocsExact: allocs/op growth is a regression even when
// ns/op improved — the 0 allocs/op pin is a hard property.
func TestCompareAllocsExact(t *testing.T) {
	baseline := results("BenchmarkLLCAccess", "after", 0, 50, 51)
	current := results("BenchmarkLLCAccess", "current", 1, 45, 46)
	v, err := Compare(baseline, current, 0.10, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	c := v.Benchmarks[0]
	if !c.Regression || !strings.Contains(c.Reason, "allocs/op") {
		t.Errorf("allocs/op 0 -> 1 not flagged: %+v", c)
	}
}

// TestCompareUsesLatestBaselineLabel: with before/after both in the
// artifact (as BENCH_hotpath.json is committed), the comparison runs
// against "after" — a current run matching "after" must pass even
// though it beats "before" by a margin.
func TestCompareUsesLatestBaselineLabel(t *testing.T) {
	artifact := append(
		results("BenchmarkLLCAccessLRU", "before", 0, 75, 69, 69, 67, 64),
		results("BenchmarkLLCAccessLRU", "after", 0, 56, 52, 52, 48, 49)...,
	)
	current := results("BenchmarkLLCAccessLRU", "current", 0, 53, 51, 52)
	v, err := Compare(artifact, current, 0.10, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	if v.BaselineLabel != "after" {
		t.Fatalf("baseline label = %q, want after (the last label in file order)", v.BaselineLabel)
	}
	if v.Benchmarks[0].Regression {
		t.Errorf("current within after-noise flagged: %+v", v.Benchmarks[0])
	}
}

// TestCompareAgainstCommittedArtifact: the real BENCH_hotpath.json
// parses and a current run replaying its own "after" samples passes.
func TestCompareAgainstCommittedArtifact(t *testing.T) {
	data, err := os.ReadFile("../../BENCH_hotpath.json")
	if err != nil {
		t.Fatal(err)
	}
	var artifact []Result
	if err := json.Unmarshal(data, &artifact); err != nil {
		t.Fatalf("committed artifact does not parse: %v", err)
	}
	_, after := latestLabel(artifact)
	if len(after) == 0 {
		t.Fatal("committed artifact has no baseline records")
	}
	v, err := Compare(artifact, after, 0.10, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	if v.Regressions != 0 {
		t.Errorf("artifact regresses against itself: %+v", v.Benchmarks)
	}
}

// TestCompareMissingBenchmark: baseline-only benchmarks are reported
// but do not fail the run on their own.
func TestCompareMissingBenchmark(t *testing.T) {
	baseline := append(
		results("BenchmarkA", "after", 0, 50),
		results("BenchmarkB", "after", 0, 60)...,
	)
	current := results("BenchmarkA", "current", 0, 50)
	v, err := Compare(baseline, current, 0.10, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(v.Missing) != "[BenchmarkB]" {
		t.Errorf("missing = %v, want [BenchmarkB]", v.Missing)
	}
	if v.Regressions != 0 {
		t.Errorf("missing benchmark counted as regression")
	}
}

func TestWatchUsageErrors(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(nil, nil, &stdout, &stderr); code != 2 {
		t.Errorf("missing -baseline: exit %d, want 2", code)
	}
	if code := run([]string{"-baseline", filepath.Join(t.TempDir(), "absent.json"), "-current", writeJSON(t, "c.json", results("B", "x", 0, 1))}, nil, &stdout, &stderr); code != 1 {
		t.Errorf("absent baseline: exit %d, want 1", code)
	}
	empty := writeJSON(t, "empty.json", []Result{})
	if code := run([]string{"-baseline", empty, "-current", empty}, nil, &stdout, &stderr); code != 1 {
		t.Errorf("empty baseline: exit %d, want 1", code)
	}
}

// withShape stamps every record with a copy of sh.
func withShape(rs []Result, sh Shape) []Result {
	for i := range rs {
		s := sh
		rs[i].Shape = &s
	}
	return rs
}

// TestCompareReportsShapeMismatch: a baseline measured on another
// machine shape is named in the verdict JSON and on stderr instead of
// being compared silently; the comparison itself still runs, and a
// matching shape reports nothing.
func TestCompareReportsShapeMismatch(t *testing.T) {
	one := Shape{NumCPU: 1, GOMAXPROCS: 1, CPUModel: "Intel(R) Xeon(R) Processor", GoVersion: "go1.24.0"}
	two := one
	two.NumCPU, two.GOMAXPROCS = 2, 2
	baseline := withShape(results("BenchmarkSingleCoreCampaign", "after", 33, 40e6, 41e6), one)

	same := withShape(results("BenchmarkSingleCoreCampaign", "current", 33, 40e6), one)
	if v, err := Compare(baseline, same, 0.10, 1.5); err != nil || v.ShapeMismatch != "" {
		t.Errorf("matching shapes: mismatch %q, err %v", v.ShapeMismatch, err)
	}
	if v, _ := Compare(baseline, results("BenchmarkSingleCoreCampaign", "current", 33, 40e6), 0.10, 1.5); !strings.Contains(v.ShapeMismatch, "current records carry no machine shape") {
		t.Errorf("unshaped current run: mismatch %q", v.ShapeMismatch)
	}

	current := withShape(results("BenchmarkSingleCoreCampaign", "current", 33, 40e6), two)
	verdictPath := filepath.Join(t.TempDir(), "verdict.json")
	var stdout, stderr bytes.Buffer
	code := run([]string{"-baseline", writeJSON(t, "base.json", baseline),
		"-current", writeJSON(t, "cur.json", current), "-out", verdictPath}, nil, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d, want 0 (a shape mismatch is reported, not a regression)\nstderr: %s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "machine shape mismatch") ||
		!strings.Contains(stderr.String(), "num_cpu 1 (baseline) != 2 (current)") {
		t.Errorf("stderr does not report the mismatch:\n%s", stderr.String())
	}
	data, err := os.ReadFile(verdictPath)
	if err != nil {
		t.Fatal(err)
	}
	var v Verdict
	if err := json.Unmarshal(data, &v); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(v.ShapeMismatch, "gomaxprocs 1 (baseline) != 2 (current)") ||
		v.BaselineShape == nil || *v.BaselineShape != one || v.CurrentShape == nil || *v.CurrentShape != two {
		t.Errorf("verdict does not carry the shapes and their difference: %+v", v)
	}
}
