package figures

import (
	"context"
	"fmt"

	"sdbp/internal/cache"
	"sdbp/internal/hier"
	"sdbp/internal/runner"
	"sdbp/internal/sim"
	"sdbp/internal/workloads"
)

// Multicore holds the Figure 10 runs: ten quad-core mixes sharing an
// 8MB LLC, under the LRU-baseline policies (10a) and random-baseline
// policies (10b), all normalized to the shared-LRU configuration. A
// failed run (panic, timeout, bad mix config) leaves NaN in
// WeightedSpeedup; Render prints those cells as ERR.
type Multicore struct {
	Mixes    []string
	Policies []string
	// WeightedSpeedup[policy][mix] is normalized to the LRU policy.
	WeightedSpeedup map[string]map[string]float64
	// NormMPKI[policy] is the mix-average LLC MPKI normalized to LRU
	// (the Section VII-D text numbers), over completed mixes.
	NormMPKI map[string]float64
}

// RunMulticoreFigureEnv performs one Figure 10 panel's sweep: the given
// policies plus the LRU baseline over all ten mixes. Runs are
// deterministic, so checkpoint keys depend only on (mix, policy, scale,
// geometry): both panels share the LRU baseline cells.
func RunMulticoreFigureEnv(e *Env, specs []PolicySpec, scale float64) *Multicore {
	return runMulticore(e, workloads.Mixes(), specs, scale, hier.LLCConfig(4))
}

// runMulticore runs the given policies plus the LRU baseline over the
// given mixes on one shared-LLC geometry.
func runMulticore(e *Env, mixes []workloads.Mix, specs []PolicySpec, scale float64, llcCfg cache.Config) *Multicore {

	// Single-run IPCs (denominators of weighted speedup): one per
	// distinct benchmark, shared across mixes and policies.
	singleKey := func(bench string) string {
		return fmt.Sprintf("mc-single|s=%g|llc=%d.%d|%s", scaleOr1(scale), llcCfg.SizeBytes, llcCfg.Ways, bench)
	}
	var names []string
	seen := map[string]bool{}
	for _, mix := range mixes {
		for _, name := range mix.Members {
			if !seen[name] {
				seen[name] = true
				names = append(names, name)
			}
		}
	}
	lru := LRUSpec()
	var singleJobs []runner.Job[float64]
	for _, name := range names {
		name := name
		singleJobs = append(singleJobs, runner.Job[float64]{
			Key: singleKey(name),
			Run: func(context.Context) (float64, error) {
				return sim.SingleIPC(name, llcCfg, scale,
					func() cache.Policy { return lru.Make(1) })
			},
		})
	}
	singleSet := runJobs(e, singleJobs)
	singles := map[string]float64{}
	for _, name := range names {
		if v, ok := singleSet.Value(singleKey(name)); ok {
			singles[name] = v
		} else {
			singles[name] = errVal()
		}
	}

	all := append([]PolicySpec{LRUSpec()}, specs...)
	mixKey := func(mix, pol string) string {
		return fmt.Sprintf("mc|s=%g|llc=%d.%d|%s|%s", scaleOr1(scale), llcCfg.SizeBytes, llcCfg.Ways, mix, pol)
	}
	var mixJobs []runner.Job[sim.MulticoreResult]
	for _, mix := range mixes {
		for _, spec := range all {
			mix, spec := mix, spec
			mixJobs = append(mixJobs, runner.Job[sim.MulticoreResult]{
				Key: mixKey(mix.Name, spec.Name),
				Run: func(context.Context) (sim.MulticoreResult, error) {
					return sim.RunMulticore(mix, spec.Make(4), sim.MulticoreOptions{Scale: scale, LLC: llcCfg})
				},
			})
		}
	}
	mixSet := runJobs(e, mixJobs)

	mc := &Multicore{
		WeightedSpeedup: make(map[string]map[string]float64),
		NormMPKI:        make(map[string]float64),
	}
	for _, mix := range mixes {
		mc.Mixes = append(mc.Mixes, mix.Name)
	}
	for _, spec := range specs {
		mc.Policies = append(mc.Policies, spec.Name)
	}

	// ws is NaN when the mix run or any member's single-run IPC failed,
	// so the normalized cell renders as ERR.
	ws := func(mix workloads.Mix, pol string) float64 {
		r, ok := mixSet.Value(mixKey(mix.Name, pol))
		if !ok {
			return errVal()
		}
		var out float64
		for i, name := range mix.Members {
			single := singles[name]
			if !(single > 0) {
				return errVal()
			}
			out += r.IPC[i] / single
		}
		return out
	}
	for _, spec := range all {
		mc.WeightedSpeedup[spec.Name] = make(map[string]float64)
		var mpkis []float64
		for _, mix := range mixes {
			norm := ws(mix, spec.Name) / ws(mix, "LRU")
			mc.WeightedSpeedup[spec.Name][mix.Name] = norm
			lru, lruOK := mixSet.Value(mixKey(mix.Name, "LRU"))
			r, rOK := mixSet.Value(mixKey(mix.Name, spec.Name))
			if lruOK && rOK && lru.MPKI > 0 {
				mpkis = append(mpkis, r.MPKI/lru.MPKI)
			}
		}
		mc.NormMPKI[spec.Name] = meanFinite(mpkis)
	}
	return mc
}

// Render prints one Figure 10 panel: normalized weighted speedup per
// mix per policy with the geometric mean the paper reports, plus the
// Section VII-D normalized MPKI line. Failed cells print as ERR and
// are excluded from the means.
func (mc *Multicore) Render(title string) string {
	header := append([]string{"mix"}, mc.Policies...)
	var rows [][]string
	series := map[string][]float64{}
	for _, mix := range mc.Mixes {
		row := []string{mix}
		for _, p := range mc.Policies {
			v := mc.WeightedSpeedup[p][mix]
			series[p] = append(series[p], v)
			row = append(row, fmtVal("%.3f", v))
		}
		rows = append(rows, row)
	}
	mean := []string{"gmean"}
	for _, p := range mc.Policies {
		mean = append(mean, fmtVal("%.3f", geoMeanFinite(series[p])))
	}
	rows = append(rows, mean)
	out := renderTable(title, header, rows)
	out += "normalized MPKI (mix average): "
	for i, p := range mc.Policies {
		if i > 0 {
			out += "  "
		}
		out += fmt.Sprintf("%s=%s", p, fmtVal("%.2f", mc.NormMPKI[p]))
	}
	return out + "\n"
}
