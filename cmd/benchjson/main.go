// Command benchjson converts `go test -bench` output into JSON so CI
// can publish benchmark results as a machine-readable artifact
// (BENCH_hotpath.json) and before/after comparisons can be scripted.
//
//	go test -bench 'LLCAccess|SingleCoreCampaign' -benchmem -run '^$' . |
//	    benchjson -label after > BENCH_hotpath.json
//
// Each "BenchmarkName-P  N  X ns/op  Y B/op  Z allocs/op ..." line
// becomes one record; unrecognized lines are ignored, so the raw test
// output can be piped in unfiltered. Every record is stamped with the
// machine shape it was measured on — GOMAXPROCS from the name's -P
// suffix, the CPU model from go test's "cpu:" header, and this host's
// CPU count and Go version (benchjson runs where the benchmarks ran) —
// so benchwatch can tell when a baseline came from another machine.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// Result is one benchmark line in JSON form. Extra is the tail of
// custom metrics (unit -> value) benchmarks report via ReportMetric.
type Result struct {
	Name        string             `json:"name"`
	Label       string             `json:"label,omitempty"`
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  *float64           `json:"bytes_per_op,omitempty"`
	AllocsPerOp *float64           `json:"allocs_per_op,omitempty"`
	Extra       map[string]float64 `json:"extra,omitempty"`
	Shape       *Shape             `json:"shape,omitempty"`
}

// Shape is the machine a record was measured on.
type Shape struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model,omitempty"`
	GoVersion  string `json:"go_version,omitempty"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchjson", flag.ContinueOnError)
	fs.SetOutput(stderr)
	label := fs.String("label", "", "label attached to every record (e.g. baseline, after)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 {
		fmt.Fprintln(stderr, "benchjson: reads benchmark output on stdin; no positional arguments")
		return 2
	}

	results, err := Parse(stdin, *label)
	if err != nil {
		fmt.Fprintln(stderr, "benchjson:", err)
		return 1
	}
	if len(results) == 0 {
		fmt.Fprintln(stderr, "benchjson: no benchmark lines found on stdin")
		return 1
	}
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(results); err != nil {
		fmt.Fprintln(stderr, "benchjson:", err)
		return 1
	}
	return 0
}

// Parse extracts benchmark records from go test -bench output and
// stamps each with its machine shape.
func Parse(r io.Reader, label string) ([]Result, error) {
	var out []Result
	var cpuModel string
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if m, ok := strings.CutPrefix(line, "cpu: "); ok {
			cpuModel = strings.TrimSpace(m)
			continue
		}
		res, procs, ok := parseLine(line)
		if !ok {
			continue
		}
		res.Label = label
		res.Shape = &Shape{
			NumCPU:     runtime.NumCPU(),
			GOMAXPROCS: procs,
			CPUModel:   cpuModel,
			GoVersion:  runtime.Version(),
		}
		out = append(out, res)
	}
	return out, sc.Err()
}

// parseLine parses one "BenchmarkX-8 1000 123 ns/op ..." line, also
// returning the GOMAXPROCS the benchmark ran with: the name's -P
// suffix, which go test omits when it is 1. The fields after the
// iteration count come in "<value> <unit>" pairs.
func parseLine(line string) (Result, int, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return Result{}, 0, false
	}
	name, procs := fields[0], 1
	if i := strings.LastIndex(name, "-"); i > 0 {
		if p, err := strconv.Atoi(name[i+1:]); err == nil {
			name, procs = name[:i], p // strip the -GOMAXPROCS suffix
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Result{}, 0, false
	}
	res := Result{Name: name, Iterations: iters}
	seenNs := false
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Result{}, 0, false
		}
		// v is declared per iteration, so storing &v is safe.
		switch unit := fields[i+1]; unit {
		case "ns/op":
			res.NsPerOp = v
			seenNs = true
		case "B/op":
			res.BytesPerOp = &v
		case "allocs/op":
			res.AllocsPerOp = &v
		default:
			if res.Extra == nil {
				res.Extra = map[string]float64{}
			}
			res.Extra[unit] = v
		}
	}
	return res, procs, seenNs
}
