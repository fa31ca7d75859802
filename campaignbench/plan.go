package main

import (
	"fmt"
	"math/rand"
	"sort"
)

// Default and held-out workload seeds. The default seed is the one the
// sizing and spread measurements in README.md were taken on; the
// held-out seed was not used while the benchmark was tuned.
const (
	defaultSeed = 1
	heldOutSeed = 7
)

// mixPolicyLRU is the shared-LRU baseline every mix is normalized to,
// and the policy of the solo and MIN capture runs.
const mixPolicyLRU = "LRU"

// workloadDef is one campaign workload: what it runs, on how many
// runner workers, and the strata its seed draws from.
//
// Every stratum is a pair of benchmarks (or Table IV mixes) whose cells
// measured alike on host wall and CPU time, allocation and simulated
// instructions per second, and the draw takes one name from each pair.
// So a seed changes which cells run but hardly how much work they are,
// and the seed-to-seed spread of every end-to-end metric stays small.
// Names that matched no other closely enough are left out.
type workloadDef struct {
	Name string
	// Why is the one-line reason the workload exists (BENCHMARK.json).
	Why string
	// Scale is the stream scale every cell runs at.
	Scale float64
	// Workers is the fixed runner worker count; never NumCPU.
	Workers int
	// Policies are preset names. Single-core workloads run each drawn
	// benchmark under each; mix_shared runs one ad-hoc spec per policy,
	// each against the shared-LRU baseline.
	Policies []string
	// Strata are the pairs the draw picks one name from.
	Strata [][2]string
	// Optimal adds one capture+MIN cell per drawn benchmark.
	Optimal bool
	// Mixes marks strata of Table IV mix names rather than benchmarks.
	Mixes bool
}

var workloadDefs = []workloadDef{
	{
		Name: "sweep_memo",
		Why:  "Fig. 4/5/7/8 sweep under the stream memo: one generated stream feeds nine policies, so filter, LLC and timing dominate",
		// 0.15 keeps every subset stream (at most 2.8M accesses at scale
		// 1) under the memo's 524,288-access per-stream cap.
		Scale:   0.15,
		Workers: 2,
		Policies: []string{"LRU", "TDBP", "CDBP", "DIP", "RRIP", "Sampler",
			"Random", "Random CDBP", "Random Sampler"},
		Strata: [][2]string{
			{"459.GemsFDTD", "482.sphinx3"}, {"450.soplex", "471.omnetpp"},
			{"400.perlbench", "456.hmmer"}, {"401.bzip2", "481.wrf"},
			{"437.leslie3d", "462.libquantum"}, {"433.milc", "436.cactusADM"},
			{"434.zeusmp", "473.astar"}, {"403.gcc", "483.xalancbmk"},
		},
	},
	{
		Name: "long_stream",
		Why:  "streams above the memo cap, so every cell pays trace generation; one worker; plus capture+MIN cells",
		// 0.5 puts every stream above the memo cap: each run generates.
		Scale:    0.5,
		Workers:  1,
		Policies: []string{"LRU", "Sampler"},
		Optimal:  true,
		Strata: [][2]string{
			{"450.soplex", "471.omnetpp"}, {"437.leslie3d", "459.GemsFDTD"},
			{"434.zeusmp", "481.wrf"}, {"403.gcc", "436.cactusADM"},
		},
	},
	{
		Name:     "mix_shared",
		Why:      "Fig. 10 quad-core mixes on a shared 8MB LLC: per-core prefilter goroutines and the serial timestamp merge",
		Scale:    0.05,
		Workers:  2,
		Policies: []string{"TADIP", "RRIP", "Sampler"},
		Mixes:    true,
		Strata:   [][2]string{{"mix2", "mix6"}, {"mix4", "mix8"}, {"mix5", "mix10"}},
	},
}

// lookupWorkload returns the named workload definition.
func lookupWorkload(name string) (workloadDef, error) {
	var names []string
	for _, d := range workloadDefs {
		if d.Name == name {
			return d, nil
		}
		names = append(names, d.Name)
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q; valid: %v", name, names)
}

// plan is one seeded draw of a workload: the only inputs the simulator
// receives are these benchmark, mix and policy names.
type plan struct {
	Def  workloadDef
	Seed int64
	// Names are the drawn benchmarks, or mixes when Def.Mixes is set,
	// sorted lexically (the figures' benchmark order).
	Names []string
}

// draw picks one name from each stratum with a generator seeded by
// seed alone, so the same seed always yields the same cells.
func draw(d workloadDef, seed int64) plan {
	r := rand.New(rand.NewSource(seed))
	var names []string
	for _, stratum := range d.Strata {
		names = append(names, stratum[r.Intn(2)])
	}
	sort.Strings(names)
	return plan{Def: d, Seed: seed, Names: names}
}

// universe is the plan holding every name any seed can draw; its cells
// are the ones digests.json records.
func universe(d workloadDef) plan {
	var names []string
	for _, stratum := range d.Strata {
		names = append(names, stratum[:]...)
	}
	sort.Strings(names)
	return plan{Def: d, Names: names}
}
