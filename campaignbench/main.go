// Command campaignbench is the repository's end-to-end benchmark: it
// runs seeded simulation campaigns through the same entry points
// cmd/experiments and sdbpd use, checks every cell's simulated outputs
// against recorded digests, and reports host-side metrics. See
// README.md for the workloads, the metrics and how they relate.
//
//	go run . -workload sweep_memo -seed 1 -seconds 35 -trace 0
//
// Each repetition runs in a fresh child process, so the stream memo
// starts empty as in a fresh cmd/experiments run. The last line of
// standard output is one JSON object with the keys correct, attempted,
// failed and metrics. The exit status is 0 only when every cell
// matched its digest.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// Repetitions per run: at least minReps (minTracedPairs untraced and
// traced pairs with -trace 1), and more while they fit in -seconds.
// Each untraced repetition is followed by setupSamples set-up-only
// child processes, so setup_s is a median over many samples.
const (
	minReps        = 3
	minTracedPairs = 2
	setupSamples   = 3
)

// metric is one reported figure with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd lists the end-to-end metrics with their units, as in
// BENCHMARK.json. Campaign times are reported in units of one reference-kernel pass
// (ref.go) timed beside every repetition, which cancels the host's
// drift; the raw seconds are printed alongside. setup_s, which must be
// in seconds, is scaled by the same ratio to a host whose pass takes
// refNominalPassS.
var endToEnd = []struct{ name, unit string }{
	{"wall_ref", "ref"},
	{"cpu_ref", "ref"},
	{"sim_minstr_per_ref", "Minstr/ref"},
	{"alloc_mb", "MB"},
	{"setup_s", "s"},
}

// perLayer lists the traced run's per-layer metrics with their units.
var perLayer = []struct{ name, unit string }{
	{"trace.gen_s", "s"},
	{"trace.accesses", "count"},
	{"hier.filter_s", "s"},
	{"hier.llc_bound_frac", "ratio"},
	{"llc.access_s", "s"},
	{"llc.accesses", "count"},
	{"llc.ns_per_access", "ns"},
	{"llc.miss_frac", "ratio"},
	{"cpu.record_s", "s"},
	{"cpu.ns_per_record", "ns"},
	{"sim.other_s", "s"},
	{"sim.prefilter_s", "s"},
	{"sim.merge_s", "s"},
	{"sim.merge_wait_s", "s"},
	{"sim.merge_records", "count"},
	{"optimal.min_s", "s"},
	{"sim.capture_mb", "MB"},
	{"runner.jobs", "count"},
	{"runner.failed", "count"},
	{"runner.busy_frac", "ratio"},
	{"runner.tail_idle_s", "s"},
	{"trace.overhead_frac", "ratio"},
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is one run as written by -out and read by -compare.
type record struct {
	Shape    shape        `json:"shape"`
	Workload string       `json:"workload"`
	Seed     int64        `json:"seed"`
	Trace    int          `json:"trace"`
	Reps     []*repResult `json:"reps"`
	Result   result       `json:"result"`
	Draw     []string     `json:"draw"`
}

func main() {
	// An interrupt kills the running child repetition and waits for it
	// before the parent exits.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("campaignbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "all", "workload name, or all")
	seed := fs.Int64("seed", defaultSeed, "workload seed: which benchmarks and mixes each stratum contributes")
	seconds := fs.Int("seconds", 35, "how long one run measures; repetitions continue while they fit")
	traced := fs.Int("trace", 0, "1 runs the traced composition and reports per-layer metrics")
	workdir := fs.String("workdir", ".bench_build/campaignbench", "directory for checkpoint journals and spans")
	out := fs.String("out", "", "write the run record (machine shape, repetitions, metrics) to this file")
	compare := fs.Bool("compare", false, "compare two run records given as arguments")
	recordPath := fs.String("record-digests", "", "run every drawable cell and write its digests to this file")
	child := fs.String("child", "", "internal: run one repetition (untraced, traced or setup) and print it as JSON")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		return compareRecords(fs.Args(), stdout, stderr)
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintln(stderr, "campaignbench:", err)
		return 2
	}
	if *recordPath != "" {
		if err := recordDigests(*recordPath, *workdir); err != nil {
			fmt.Fprintln(stderr, "campaignbench:", err)
			return 1
		}
		return 0
	}
	if *child != "" {
		return runChild(*child, *workload, *seed, *workdir, stdout, stderr)
	}
	if *traced != 0 && *traced != 1 {
		fmt.Fprintln(stderr, "campaignbench: -trace must be 0 or 1")
		return 2
	}
	if *seconds < 1 {
		fmt.Fprintln(stderr, "campaignbench: -seconds must be at least 1")
		return 2
	}
	defs := workloadDefs
	if *workload != "all" {
		d, err := lookupWorkload(*workload)
		if err != nil {
			fmt.Fprintln(stderr, "campaignbench:", err)
			return 2
		}
		defs = []workloadDef{d}
	}
	universe, err := loadDigests()
	if err != nil {
		fmt.Fprintln(stderr, "campaignbench:", err)
		return 2
	}

	sh := machineShape()
	shJSON, _ := json.Marshal(sh)
	fmt.Fprintf(stdout, "shape: %s\n", shJSON)
	total := result{Correct: true, Metrics: map[string]metric{}}
	budget := time.Duration(*seconds) * time.Second / time.Duration(len(defs))
	for _, d := range defs {
		rec, err := runWorkload(ctx, d, *seed, budget, *traced == 1, *workdir, universe, stdout, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "campaignbench: %s: %v\n", d.Name, err)
			return 1
		}
		rec.Shape = sh
		total.Correct = total.Correct && rec.Result.Correct
		total.Attempted += rec.Result.Attempted
		total.Failed += rec.Result.Failed
		for k, v := range rec.Result.Metrics {
			if len(defs) > 1 {
				k = d.Name + "." + k
			}
			total.Metrics[k] = v
		}
		if *out != "" {
			path := *out
			if len(defs) > 1 {
				path = strings.TrimSuffix(path, ".json") + "." + d.Name + ".json"
			}
			if err := writeJSON(path, rec); err != nil {
				fmt.Fprintln(stderr, "campaignbench:", err)
				return 1
			}
		}
	}
	line, err := json.Marshal(total)
	if err != nil {
		fmt.Fprintln(stderr, "campaignbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !total.Correct {
		return 1
	}
	return 0
}

// runChild runs one repetition in this process and prints it.
func runChild(mode, workload string, seed int64, workdir string, stdout, stderr io.Writer) int {
	d, err := lookupWorkload(workload)
	if err != nil {
		fmt.Fprintln(stderr, "campaignbench:", err)
		return 2
	}
	p := draw(d, seed)
	var res *repResult
	switch mode {
	case "untraced", "setup":
		res, err = runUntraced(p, workdir, mode == "setup")
	case "traced":
		res, err = runTraced(p, filepath.Join(workdir, fmt.Sprintf("spans-%s-seed%d.json", d.Name, seed)))
	default:
		err = fmt.Errorf("unknown -child mode %q", mode)
	}
	if err != nil {
		fmt.Fprintln(stderr, "campaignbench:", err)
		return 1
	}
	if err := json.NewEncoder(stdout).Encode(res); err != nil {
		fmt.Fprintln(stderr, "campaignbench:", err)
		return 1
	}
	return 0
}

// spawn runs one repetition in a child process and returns it with its
// set-up time: from just before the process starts to its first
// simulation call.
func spawn(ctx context.Context, mode string, d workloadDef, seed int64, workdir string, stderr io.Writer) (*repResult, float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, 0, err
	}
	cmd := exec.CommandContext(ctx, exe, "-child", mode, "-workload", d.Name,
		"-seed", strconv.FormatInt(seed, 10), "-workdir", workdir)
	cmd.Stderr = stderr
	var buf strings.Builder
	cmd.Stdout = &buf
	start := time.Now().UnixNano()
	if err := cmd.Run(); err != nil {
		return nil, 0, fmt.Errorf("%s repetition: %w", mode, err)
	}
	var res repResult
	if err := json.Unmarshal([]byte(buf.String()), &res); err != nil {
		return nil, 0, fmt.Errorf("%s repetition output: %w", mode, err)
	}
	return &res, float64(res.SetupEnd-start) / 1e9, nil
}

// check compares a repetition's digests with the recorded ones and
// returns how many cells it attempted and how many failed.
func check(keys []string, rep *repResult, universe map[string]string, stderr io.Writer) (attempted, failed int) {
	for _, k := range keys {
		got, ok := rep.Digests[k]
		want, known := universe[k]
		if !ok || !known || got != want {
			failed++
			fmt.Fprintf(stderr, "campaignbench: cell %s: digest %q, recorded %q\n", k, got, want)
		}
	}
	return len(keys), failed
}

// runWorkload repeats a workload's repetitions while they fit in the
// budget (at least minReps; in traced mode alternating untraced and
// traced repetitions) and reports its metrics.
func runWorkload(ctx context.Context, d workloadDef, seed int64, budget time.Duration, traced bool, workdir string,
	universe map[string]string, stdout, stderr io.Writer) (*record, error) {
	p := draw(d, seed)
	keys, err := cellKeys(p)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(stdout, "%s: seed %d draws %s; %d cells per repetition on %d worker(s)\n",
		d.Name, seed, strings.Join(p.Names, ","), len(keys), d.Workers)

	rec := &record{Workload: d.Name, Seed: seed, Draw: p.Names, Result: result{Correct: true}}
	if traced {
		rec.Trace = 1
	}
	var untraced, tracedReps []*repResult
	var setups []float64
	least := minReps
	if traced {
		least = minTracedPairs
	}
	start := time.Now()
	var last time.Duration
	for n := 0; n < least || time.Since(start)+last <= budget; n++ {
		repStart := time.Now()
		modes := []string{"untraced"}
		if traced {
			modes = append(modes, "traced")
		}
		for _, mode := range modes {
			rep, setup, err := spawn(ctx, mode, d, seed, workdir, stderr)
			if err != nil {
				return nil, err
			}
			a, f := check(keys, rep, universe, stderr)
			rec.Result.Attempted += a
			rec.Result.Failed += f
			rec.Reps = append(rec.Reps, rep)
			if mode == "traced" {
				tracedReps = append(tracedReps, rep)
			} else {
				untraced = append(untraced, rep)
				setups = append(setups, setup)
			}
		}
		for i := 0; i < setupSamples && !traced; i++ {
			_, setup, err := spawn(ctx, "setup", d, seed, workdir, stderr)
			if err != nil {
				return nil, err
			}
			setups = append(setups, setup)
		}
		last = time.Since(repStart)
	}
	rec.Result.Correct = rec.Result.Failed == 0

	wall := relRef(untraced, func(r *repResult) float64 { return r.WallS }, refWall)
	m := map[string]metric{}
	if !traced {
		for _, r := range untraced[1:] {
			if r.Instructions != untraced[0].Instructions {
				fmt.Fprintf(stderr, "campaignbench: %s: simulated instructions differ between repetitions\n", d.Name)
				rec.Result.Correct = false
			}
		}
		v := map[string]float64{
			"wall_ref":           wall,
			"cpu_ref":            relRef(untraced, func(r *repResult) float64 { return r.CPUS }, refCPU),
			"sim_minstr_per_ref": float64(untraced[0].Instructions) / wall / 1e6,
			"alloc_mb":           mean(pick(untraced, func(r *repResult) float64 { return r.AllocMB })),
			"setup_s":            median(setups) * refNominalPassS / perPass(untraced, refWall),
		}
		for _, e := range endToEnd {
			m[e.name] = metric{v[e.name], e.unit}
		}
	} else {
		for _, l := range perLayer {
			if l.name == "trace.overhead_frac" {
				tw := relRef(tracedReps, func(r *repResult) float64 { return r.WallS }, refWall)
				m[l.name] = metric{tw/wall - 1, l.unit}
				continue
			}
			m[l.name] = metric{median(pick(tracedReps, func(r *repResult) float64 { return r.Layers[l.name] })), l.unit}
		}
	}
	rec.Result.Metrics = m
	printMetrics(stdout, d.Name, m, len(untraced), len(tracedReps))
	wallS := median(pick(untraced, func(r *repResult) float64 { return r.WallS }))
	fmt.Fprintf(stdout, "  host: median wall_s %.6g s, cpu_s %.6g s, sim_minstr_per_s %.6g Minstr/s, setup %.6g s; reference pass %.6g s wall, %.6g s CPU\n",
		wallS, median(pick(untraced, func(r *repResult) float64 { return r.CPUS })),
		float64(untraced[0].Instructions)/wallS/1e6, median(setups), perPass(untraced, refWall), perPass(untraced, refCPU))
	failedFrac := float64(rec.Result.Failed) / float64(rec.Result.Attempted)
	fmt.Fprintf(stdout, "  %-22s %14.6g %-9s (%d of %d cells)\n", "cells_failed_frac", failedFrac, "ratio",
		rec.Result.Failed, rec.Result.Attempted)
	return rec, nil
}

func printMetrics(w io.Writer, workload string, m map[string]metric, untraced, traced int) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%s: %d untraced and %d traced repetitions (times: mean over mean reference pass; alloc_mb: mean; setup_s: median, scaled)\n", workload, untraced, traced)
	for _, k := range names {
		fmt.Fprintf(w, "  %-22s %14.6g %s\n", k, m[k].Value, m[k].Unit)
	}
}

func refWall(r *repResult) []float64 { return r.RefWallS }

func refCPU(r *repResult) []float64 { return r.RefCPUS }

// perPass is the mean time of one reference-kernel pass over every pass
// of reps.
func perPass(reps []*repResult, ref func(*repResult) []float64) float64 {
	var all []float64
	for _, r := range reps {
		all = append(all, ref(r)...)
	}
	return mean(all)
}

// relRef is a campaign time in reference-kernel passes: the mean time
// over reps, divided by the mean pass time over the same reps. Means on
// both sides, so that bursts of load from elsewhere weigh alike in the
// campaign's time and in the unit; medians (or a median pass) drop them
// from one side only and bias the ratio by how bursty the host is.
func relRef(reps []*repResult, f func(*repResult) float64, ref func(*repResult) []float64) float64 {
	return mean(pick(reps, f)) / perPass(reps, ref)
}

func pick(reps []*repResult, f func(*repResult) float64) []float64 {
	out := make([]float64, len(reps))
	for i, r := range reps {
		out[i] = f(r)
	}
	return out
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean is used for reference-unit times (see relRef) and for alloc_mb:
// a repetition's allocation takes one of a few values (a racy duplicate
// stream-memo fill happens or not), and a median of such values jumps
// between them from run to run.
func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func writeJSON(path string, v any) error {
	out, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}

// shape is the machine a run was taken on. RunSingle picks its drive
// loop from NumCPU, so two shapes can time different code.
type shape struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	// DrivePath is the loop sim.RunSingle takes for the campaigns'
	// observer-free cells: pipelined (a producer goroutine generates
	// and filters) when NumCPU > 1, else the inline block loop.
	DrivePath string `json:"drive_path"`
}

func machineShape() shape {
	s := shape{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		DrivePath:  "inline",
	}
	if s.NumCPU > 1 {
		s.DrivePath = "pipelined"
	}
	return s
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// compareRecords prints two run records' metrics side by side. Runs
// taken on different machine shapes are reported as a shape mismatch
// and not compared.
func compareRecords(paths []string, stdout, stderr io.Writer) int {
	if len(paths) != 2 {
		fmt.Fprintln(stderr, "campaignbench: -compare takes two run records")
		return 2
	}
	var recs [2]record
	for i, p := range paths {
		b, err := os.ReadFile(p)
		if err == nil {
			err = json.Unmarshal(b, &recs[i])
		}
		if err != nil {
			fmt.Fprintln(stderr, "campaignbench:", err)
			return 2
		}
	}
	a, b := recs[0], recs[1]
	if a.Shape != b.Shape {
		fmt.Fprintf(stdout, "shape mismatch: %+v vs %+v; not compared\n", a.Shape, b.Shape)
		return 1
	}
	if a.Workload != b.Workload || a.Seed != b.Seed || a.Trace != b.Trace {
		fmt.Fprintf(stdout, "run mismatch: %s seed %d vs %s seed %d; not compared\n", a.Workload, a.Seed, b.Workload, b.Seed)
		return 1
	}
	names := make([]string, 0, len(a.Result.Metrics))
	for k := range a.Result.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		va, vb := a.Result.Metrics[k], b.Result.Metrics[k]
		fmt.Fprintf(stdout, "%-22s %14.6g %14.6g %8.3f %s\n", k, va.Value, vb.Value, vb.Value/va.Value, va.Unit)
	}
	return 0
}
