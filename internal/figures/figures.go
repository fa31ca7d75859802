// Package figures regenerates every table and figure in the paper's
// evaluation: the policy comparison figures (4, 5, 7, 8), the predictor
// accuracy figure (9), the component ablation (6), the multicore
// weighted speedups (10a, 10b), the storage and power tables (I, II),
// the benchmark characterization table (III), the workload mixes and
// cache sensitivity curves (IV), and the cache-efficiency illustration
// (Figure 1).
//
// Each figure has a Run function that performs the sweep and a Render
// method that prints the same rows/series the paper reports.
package figures

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"sdbp/internal/cache"
	"sdbp/internal/exp"
	"sdbp/internal/hier"
	"sdbp/internal/runner"
	"sdbp/internal/sim"
	"sdbp/internal/workloads"
)

// PolicySpec names a policy and builds fresh instances of it, one per
// simulation (policies hold mutable state and must never be shared
// across runs).
type PolicySpec struct {
	// Name is the paper's abbreviation for the technique (Table V).
	Name string
	// Make builds a fresh policy for a cache shared by threads threads.
	Make func(threads int) cache.Policy
}

// preset looks a policy up in the component registry by its preset
// name, keeping that name as the table label.
func preset(name string) PolicySpec {
	p := exp.MustResolvePolicy(name)
	return PolicySpec{p.Name, p.Make}
}

// presetAs is preset with a different table label (the extension
// tables abbreviate some preset names to fit their columns).
func presetAs(label, name string) PolicySpec {
	return PolicySpec{label, exp.MustResolvePolicy(name).Make}
}

// exprSpec builds a PolicySpec from a registry expression, labeled
// explicitly (sweep points label by the swept parameter value).
func exprSpec(label, expr string) PolicySpec {
	return PolicySpec{label, exp.MustResolvePolicy(expr).Make}
}

// LRUSpec is the baseline.
func LRUSpec() PolicySpec { return preset("LRU") }

// StandardPolicies returns the paper's LRU-baseline comparison set in
// presentation order: TDBP, CDBP, DIP, RRIP, Sampler.
func StandardPolicies() []PolicySpec {
	return []PolicySpec{
		preset("TDBP"), preset("CDBP"), preset("DIP"), preset("RRIP"), preset("Sampler"),
	}
}

// RandomPolicies returns the random-baseline comparison set of Figures
// 7 and 8: Random, Random CDBP, Random Sampler.
func RandomPolicies() []PolicySpec {
	return []PolicySpec{
		preset("Random"), preset("Random CDBP"), preset("Random Sampler"),
	}
}

// MulticorePolicies returns the shared-cache comparison set of Figure
// 10(a): TDBP, CDBP, TADIP, RRIP, Sampler.
func MulticorePolicies() []PolicySpec {
	return []PolicySpec{
		preset("TDBP"), preset("CDBP"), preset("TADIP"), preset("RRIP"), preset("Sampler"),
	}
}

// cell identifies one (benchmark, policy) run in a matrix sweep.
type cell struct {
	bench  string
	policy string
}

// Matrix holds the results of a benchmarks × policies sweep. Cells
// whose run failed (panic, timeout, cancellation) carry an entry in
// Errors instead of Results; renderers print them as ERR and aggregate
// rows skip them.
type Matrix struct {
	Benchmarks []string
	Policies   []string
	Results    map[cell]sim.SingleResult
	Errors     map[cell]error
}

// Get returns one run's result (the zero result for a failed cell).
func (m *Matrix) Get(bench, pol string) sim.SingleResult {
	return m.Results[cell{bench, pol}]
}

// Err returns why a cell failed, nil for a completed cell.
func (m *Matrix) Err(bench, pol string) error {
	return m.Errors[cell{bench, pol}]
}

// Val returns f of the cell's result, or NaN when the run failed, so
// downstream normalizations propagate the failure to every value that
// depends on it.
func (m *Matrix) Val(bench, pol string, f func(sim.SingleResult) float64) float64 {
	if _, ok := m.Results[cell{bench, pol}]; !ok {
		return errVal()
	}
	return f(m.Get(bench, pol))
}

// Series returns one policy's values over the benchmark list, computed
// by f; failed cells yield NaN.
func (m *Matrix) Series(pol string, f func(sim.SingleResult) float64) []float64 {
	out := make([]float64, len(m.Benchmarks))
	for i, b := range m.Benchmarks {
		out[i] = m.Val(b, pol, f)
	}
	return out
}

// RunMatrixEnv sweeps every benchmark against every policy on the
// shared runner, one sim.RunFanout pass per benchmark over the
// policies whose cells are not already checkpointed (more than one
// when there are fewer benchmarks than workers; see Env.fanoutParts).
// Section names the sweep in checkpoint keys and failure reports; it
// must be stable across runs for -resume to hit.
func RunMatrixEnv(e *Env, section string, benches []workloads.Workload, specs []PolicySpec, opts sim.SingleOptions) *Matrix {
	m := &Matrix{
		Results: make(map[cell]sim.SingleResult),
		Errors:  make(map[cell]error),
	}
	for _, b := range benches {
		m.Benchmarks = append(m.Benchmarks, b.Name)
	}
	for _, s := range specs {
		m.Policies = append(m.Policies, s.Name)
	}

	key := func(bench, pol string) string {
		return fmt.Sprintf("%s|%s|%s|%s", section, optKey(opts), bench, pol)
	}
	// A benchmark's policies share one generation and private-level
	// pass per group, while each cell keeps its own checkpoint key.
	parts := e.fanoutParts(len(benches))
	var groups []runner.Group[sim.SingleResult]
	for _, w := range benches {
		keys := make([]string, len(specs))
		lanes := make([]sim.Lane, len(specs))
		for i, s := range specs {
			keys[i] = key(w.Name, s.Name)
			lanes[i] = sim.Lane{Policy: func() cache.Policy { return s.Make(1) }}
		}
		groups = append(groups, fanoutGroups(w, opts, keys, lanes, parts, func(r sim.SingleResult) sim.SingleResult { return r })...)
	}
	set := runGroups(e, groups)
	for _, b := range m.Benchmarks {
		for _, p := range m.Policies {
			k := key(b, p)
			if r, ok := set.Value(k); ok {
				m.Results[cell{b, p}] = r
			} else if err := set.Err(k); err != nil {
				m.Errors[cell{b, p}] = err
			}
		}
	}
	return m
}

// fanoutGroups is one benchmark's runner groups: keys[i] names the
// cell lanes[i] computes, split into parts groups of near-equal size
// (at most one per lane). Each execution runs one sim.RunFanout pass
// over the lanes of the keys it is given, mapping every lane's result
// through val. A lane that panics fails only its own key.
func fanoutGroups[T any](w workloads.Workload, opts sim.SingleOptions, keys []string, lanes []sim.Lane, parts int, val func(sim.SingleResult) T) []runner.Group[T] {
	laneOf := make(map[string]sim.Lane, len(keys))
	for i, k := range keys {
		laneOf[k] = lanes[i]
	}
	run := func(_ context.Context, pending []string) []runner.Outcome[T] {
		lanes := make([]sim.Lane, len(pending))
		for i, k := range pending {
			lanes[i] = laneOf[k]
		}
		outs := make([]runner.Outcome[T], len(pending))
		for i, r := range sim.RunFanout(w, opts, lanes) {
			if r.Err != nil {
				outs[i].Err = r.Err
			} else {
				outs[i].Value = val(r.Result)
			}
		}
		return outs
	}
	parts = min(max(parts, 1), len(keys))
	groups := make([]runner.Group[T], parts)
	for i := range groups {
		groups[i] = runner.Group[T]{Keys: keys[i*len(keys)/parts : (i+1)*len(keys)/parts], Run: run}
	}
	return groups
}

// renderTable prints a header row and aligned numeric rows.
func renderTable(title string, header []string, rows [][]string) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s\n", title)
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i == 0 {
				fmt.Fprintf(&sb, "%-*s", widths[i]+2, c)
			} else {
				fmt.Fprintf(&sb, "%*s", widths[i]+2, c)
			}
		}
		sb.WriteByte('\n')
	}
	writeRow(header)
	for _, r := range rows {
		writeRow(r)
	}
	return sb.String()
}

// defaultLLC returns the paper's single-core LLC geometry.
func defaultLLC() cache.Config { return hier.LLCConfig(1) }

// sortedNames returns names sorted lexically (benchmark order in the
// paper's figures).
func sortedNames(ws []workloads.Workload) []workloads.Workload {
	out := make([]workloads.Workload, len(ws))
	copy(out, ws)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
