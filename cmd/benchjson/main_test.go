package main

import (
	"bytes"
	"encoding/json"
	"runtime"
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: sdbp
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkLLCAccess-8         	46979772	        55.52 ns/op	       0 B/op	       0 allocs/op
BenchmarkSingleCoreCampaign 	      55	  44406798 ns/op	 2175608 B/op	      58 allocs/op
BenchmarkFig6Ablation-4     	       2	 600000000 ns/op	         1.059 gmean-full
PASS
ok  	sdbp	8.117s
`

func TestParse(t *testing.T) {
	results, err := Parse(strings.NewReader(sampleOutput), "baseline")
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("parsed %d results, want 3", len(results))
	}

	llc := results[0]
	if llc.Name != "BenchmarkLLCAccess" {
		t.Errorf("name %q: -GOMAXPROCS suffix not stripped", llc.Name)
	}
	if llc.Label != "baseline" || llc.Iterations != 46979772 || llc.NsPerOp != 55.52 {
		t.Errorf("bad record: %+v", llc)
	}
	if llc.AllocsPerOp == nil || *llc.AllocsPerOp != 0 {
		t.Errorf("allocs/op not captured: %+v", llc.AllocsPerOp)
	}

	camp := results[1]
	if camp.Name != "BenchmarkSingleCoreCampaign" || camp.NsPerOp != 44406798 {
		t.Errorf("bad record: %+v", camp)
	}

	abl := results[2]
	if abl.Extra["gmean-full"] != 1.059 {
		t.Errorf("custom metric not captured: %+v", abl.Extra)
	}
}

// TestParseStampsShape: every record carries the machine shape it was
// measured on, GOMAXPROCS read per record from its name suffix (absent
// means 1) and the CPU model from go test's header.
func TestParseStampsShape(t *testing.T) {
	results, err := Parse(strings.NewReader(sampleOutput), "")
	if err != nil {
		t.Fatal(err)
	}
	for i, procs := range []int{8, 1, 4} {
		sh := results[i].Shape
		if sh == nil {
			t.Fatalf("%s: no shape", results[i].Name)
		}
		want := Shape{NumCPU: runtime.NumCPU(), GOMAXPROCS: procs,
			CPUModel: "Intel(R) Xeon(R) Processor @ 2.10GHz", GoVersion: runtime.Version()}
		if *sh != want {
			t.Errorf("%s: shape %+v, want %+v", results[i].Name, *sh, want)
		}
	}
}

func TestParseIgnoresNoise(t *testing.T) {
	results, err := Parse(strings.NewReader("PASS\nok sdbp 1s\nBenchmarkBroken abc\n"), "")
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 0 {
		t.Fatalf("parsed %d results from noise, want 0", len(results))
	}
}

func TestRunEmitsValidJSON(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-label", "after"}, strings.NewReader(sampleOutput), &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	var decoded []Result
	if err := json.Unmarshal(stdout.Bytes(), &decoded); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if len(decoded) != 3 || decoded[0].Label != "after" {
		t.Fatalf("bad decoded output: %+v", decoded)
	}
}

func TestRunExitCodes(t *testing.T) {
	var out bytes.Buffer
	if code := run([]string{"-nope"}, strings.NewReader(""), &out, &out); code != 2 {
		t.Errorf("unknown flag: exit %d, want 2", code)
	}
	if code := run([]string{"positional"}, strings.NewReader(""), &out, &out); code != 2 {
		t.Errorf("positional arg: exit %d, want 2", code)
	}
	if code := run(nil, strings.NewReader("no benchmarks here\n"), &out, &out); code != 1 {
		t.Errorf("empty input: exit %d, want 1", code)
	}
}
