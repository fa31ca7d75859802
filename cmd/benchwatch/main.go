// Command benchwatch is the perf-regression watchdog: it compares a
// fresh benchmark run (benchjson output) against the committed
// baseline artifact and exits non-zero when the hot path got slower
// than the baseline's own noise explains.
//
//	go test -bench 'LLCAccess|SingleCoreCampaign' -benchmem -run '^$' -count 5 . |
//	    benchjson -label current |
//	    benchwatch -baseline BENCH_hotpath.json -out verdict.json
//
// Methodology (see DESIGN.md): both sides carry repeated samples per
// benchmark, so the comparison is paired medians — the median is
// robust to the stray slow iteration that plagues shared CI runners.
// The slowdown threshold is noise-aware: a benchmark must regress by
// more than max(-threshold, -noise-k × the baseline's own relative
// spread) before it counts, so tight benchmarks are held tight and
// noisy ones are not flapped on. allocs/op has no noise: the median
// must not grow at all.
//
// Records carry the machine shape benchjson stamped on them. When the
// baseline's shape differs from the current run's (or either side has
// none), the verdict names the difference and benchwatch says so on
// stderr: the numbers are still compared, but not silently across
// machines.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// Result mirrors benchjson's record (the two commands are separate
// mains, so the shape is pinned here and covered by tests).
type Result struct {
	Name        string   `json:"name"`
	Label       string   `json:"label,omitempty"`
	Iterations  int64    `json:"iterations"`
	NsPerOp     float64  `json:"ns_per_op"`
	BytesPerOp  *float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp *float64 `json:"allocs_per_op,omitempty"`
	Shape       *Shape   `json:"shape,omitempty"`
}

// Shape mirrors benchjson's machine shape.
type Shape struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model,omitempty"`
	GoVersion  string `json:"go_version,omitempty"`
}

// Comparison is one benchmark's verdict.
type Comparison struct {
	Name       string  `json:"name"`
	BaselineNs float64 `json:"baseline_ns"` // median
	CurrentNs  float64 `json:"current_ns"`  // median
	Delta      float64 `json:"delta"`       // (current-baseline)/baseline
	Threshold  float64 `json:"threshold"`   // effective, noise-adjusted
	Samples    [2]int  `json:"samples"`     // baseline, current

	BaselineAllocs *float64 `json:"baseline_allocs,omitempty"`
	CurrentAllocs  *float64 `json:"current_allocs,omitempty"`

	Regression bool   `json:"regression"`
	Reason     string `json:"reason,omitempty"`
}

// Verdict is the machine-readable artifact CI uploads.
type Verdict struct {
	BaselineLabel string       `json:"baseline_label"`
	CurrentLabel  string       `json:"current_label,omitempty"`
	Benchmarks    []Comparison `json:"benchmarks"`
	Missing       []string     `json:"missing,omitempty"` // in baseline, absent from current
	Regressions   int          `json:"regressions"`

	// BaselineShape and CurrentShape are the machines each side was
	// measured on (the first shaped record of each); ShapeMismatch
	// describes how they differ, or that a side carries no shape, and
	// is empty when both match.
	BaselineShape *Shape `json:"baseline_shape,omitempty"`
	CurrentShape  *Shape `json:"current_shape,omitempty"`
	ShapeMismatch string `json:"shape_mismatch,omitempty"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchwatch", flag.ContinueOnError)
	fs.SetOutput(stderr)
	baseFile := fs.String("baseline", "", "committed benchjson artifact to compare against (required)")
	curFile := fs.String("current", "-", `fresh benchjson output ("-" = stdin)`)
	outFile := fs.String("out", "", "write the verdict JSON here as well as summarizing on stdout")
	minThreshold := fs.Float64("threshold", 0.10, "minimum relative ns/op slowdown that counts as a regression")
	noiseK := fs.Float64("noise-k", 1.5, "widen the threshold to this multiple of the baseline's relative spread")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *baseFile == "" {
		fmt.Fprintln(stderr, "benchwatch: -baseline FILE is required (the committed benchjson artifact)")
		return 2
	}

	baseline, err := readResults(*baseFile, stdin)
	if err != nil {
		fmt.Fprintln(stderr, "benchwatch:", err)
		return 1
	}
	current, err := readResults(*curFile, stdin)
	if err != nil {
		fmt.Fprintln(stderr, "benchwatch:", err)
		return 1
	}

	verdict, err := Compare(baseline, current, *minThreshold, *noiseK)
	if err != nil {
		fmt.Fprintln(stderr, "benchwatch:", err)
		return 1
	}

	if verdict.ShapeMismatch != "" {
		fmt.Fprintf(stderr, "benchwatch: machine shape mismatch: %s\n", verdict.ShapeMismatch)
	}
	for _, c := range verdict.Benchmarks {
		status := "ok"
		if c.Regression {
			status = "REGRESSION: " + c.Reason
		}
		fmt.Fprintf(stdout, "%-32s %12.2f -> %12.2f ns/op  (%+.1f%%, threshold %.1f%%)  %s\n",
			c.Name, c.BaselineNs, c.CurrentNs, 100*c.Delta, 100*c.Threshold, status)
	}
	for _, name := range verdict.Missing {
		fmt.Fprintf(stderr, "benchwatch: %s is in the baseline but missing from the current run\n", name)
	}
	if *outFile != "" {
		data, err := json.MarshalIndent(verdict, "", "  ")
		if err != nil {
			fmt.Fprintln(stderr, "benchwatch:", err)
			return 1
		}
		if err := os.WriteFile(*outFile, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintln(stderr, "benchwatch:", err)
			return 1
		}
	}
	if verdict.Regressions > 0 {
		fmt.Fprintf(stderr, "benchwatch: %d regression(s) against %s\n", verdict.Regressions, *baseFile)
		return 1
	}
	fmt.Fprintln(stdout, "benchwatch: no regressions")
	return 0
}

// readResults loads a benchjson array from path, or stdin for "-".
func readResults(path string, stdin io.Reader) ([]Result, error) {
	var data []byte
	var err error
	if path == "-" {
		data, err = io.ReadAll(stdin)
	} else {
		data, err = os.ReadFile(path)
	}
	if err != nil {
		return nil, err
	}
	var out []Result
	if err := json.Unmarshal(data, &out); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return out, nil
}

// latestLabel picks the records to compare: the artifact accumulates
// labeled runs over time (BENCH_hotpath.json holds before/after
// pairs), and the meaningful baseline is the newest — the last label
// in file order.
func latestLabel(results []Result) (string, []Result) {
	if len(results) == 0 {
		return "", nil
	}
	label := results[len(results)-1].Label
	var out []Result
	for _, r := range results {
		if r.Label == label {
			out = append(out, r)
		}
	}
	return label, out
}

// median of a non-empty sample set.
func median(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// spread is the relative width of a sample set: (max-min)/median.
// Zero for a single sample — one observation carries no noise
// estimate, so only the floor threshold applies.
func spread(vals []float64) float64 {
	if len(vals) < 2 {
		return 0
	}
	min, max := vals[0], vals[0]
	for _, v := range vals {
		min = math.Min(min, v)
		max = math.Max(max, v)
	}
	if m := median(vals); m > 0 {
		return (max - min) / m
	}
	return 0
}

// group collects per-benchmark ns/op and allocs/op samples.
func group(results []Result) (map[string][]float64, map[string][]float64, []string) {
	ns := map[string][]float64{}
	allocs := map[string][]float64{}
	var order []string
	for _, r := range results {
		if _, seen := ns[r.Name]; !seen {
			order = append(order, r.Name)
		}
		ns[r.Name] = append(ns[r.Name], r.NsPerOp)
		if r.AllocsPerOp != nil {
			allocs[r.Name] = append(allocs[r.Name], *r.AllocsPerOp)
		}
	}
	return ns, allocs, order
}

// Compare runs the paired-median comparison of current against
// baseline. Benchmarks only in the current run are ignored (new
// benchmarks have no baseline); benchmarks only in the baseline are
// reported as missing but are not a regression by themselves.
func Compare(baseline, current []Result, minThreshold, noiseK float64) (Verdict, error) {
	baseLabel, base := latestLabel(baseline)
	curLabel, cur := latestLabel(current)
	if len(base) == 0 {
		return Verdict{}, fmt.Errorf("baseline holds no benchmark records")
	}
	if len(cur) == 0 {
		return Verdict{}, fmt.Errorf("current run holds no benchmark records")
	}
	baseNs, baseAllocs, order := group(base)
	curNs, curAllocs, _ := group(cur)

	v := Verdict{BaselineLabel: baseLabel, CurrentLabel: curLabel,
		BaselineShape: shapeOf(base), CurrentShape: shapeOf(cur)}
	v.ShapeMismatch = shapeMismatch(v.BaselineShape, v.CurrentShape)
	for _, name := range order {
		curSamples, ok := curNs[name]
		if !ok {
			v.Missing = append(v.Missing, name)
			continue
		}
		c := Comparison{
			Name:       name,
			BaselineNs: median(baseNs[name]),
			CurrentNs:  median(curSamples),
			Samples:    [2]int{len(baseNs[name]), len(curSamples)},
		}
		c.Delta = (c.CurrentNs - c.BaselineNs) / c.BaselineNs
		c.Threshold = math.Max(minThreshold, noiseK*spread(baseNs[name]))
		if c.Delta > c.Threshold {
			c.Regression = true
			c.Reason = fmt.Sprintf("ns/op +%.1f%% exceeds the %.1f%% noise-adjusted threshold", 100*c.Delta, 100*c.Threshold)
		}
		if ba, ok := baseAllocs[name]; ok {
			if ca, ok := curAllocs[name]; ok {
				bm, cm := median(ba), median(ca)
				c.BaselineAllocs, c.CurrentAllocs = &bm, &cm
				// Allocation counts are deterministic; any growth is a
				// real change, not noise.
				if cm > bm {
					c.Regression = true
					if c.Reason != "" {
						c.Reason += "; "
					}
					c.Reason += fmt.Sprintf("allocs/op grew %g -> %g", bm, cm)
				}
			}
		}
		if c.Regression {
			v.Regressions++
		}
		v.Benchmarks = append(v.Benchmarks, c)
	}
	return v, nil
}

// shapeOf returns the first machine shape among records, or nil.
func shapeOf(records []Result) *Shape {
	for _, r := range records {
		if r.Shape != nil {
			return r.Shape
		}
	}
	return nil
}

// shapeMismatch describes how the baseline and current machine shapes
// differ ("" when they match).
func shapeMismatch(base, cur *Shape) string {
	switch {
	case base == nil && cur == nil:
		return "neither baseline nor current records carry a machine shape"
	case base == nil:
		return "baseline records carry no machine shape"
	case cur == nil:
		return "current records carry no machine shape"
	}
	var diffs []string
	add := func(field string, b, c any) {
		if b != c {
			diffs = append(diffs, fmt.Sprintf("%s %v (baseline) != %v (current)", field, b, c))
		}
	}
	add("num_cpu", base.NumCPU, cur.NumCPU)
	add("gomaxprocs", base.GOMAXPROCS, cur.GOMAXPROCS)
	add("cpu_model", fmt.Sprintf("%q", base.CPUModel), fmt.Sprintf("%q", cur.CPUModel))
	add("go_version", base.GoVersion, cur.GoVersion)
	return strings.Join(diffs, "; ")
}
