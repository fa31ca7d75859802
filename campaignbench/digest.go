package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"

	"sdbp/internal/cache"
	"sdbp/internal/sim"
)

// Cell keys. Each workload runs at one fixed scale and geometry, so a
// key needs only the workload, the benchmark or mix, and the policy.
func singleKey(workload, bench, policy string) string {
	return workload + "|" + bench + "|" + policy
}

func minKey(workload, bench string) string { return workload + "|" + bench + "|MIN" }

func soloKey(workload, bench string) string { return workload + "|solo|" + bench }

func mixKey(workload, mix, policy string) string { return workload + "|" + mix + "|" + policy }

func wsKey(workload, mix, policy string) string { return workload + "|ws|" + mix + "|" + policy }

// hasher accumulates a cell's simulated outputs bit-exactly.
type hasher struct{ b []byte }

func (h *hasher) u64(v uint64) { h.b = binary.LittleEndian.AppendUint64(h.b, v) }

func (h *hasher) f64(v float64) { h.u64(math.Float64bits(v)) }

func (h *hasher) stats(s cache.Stats) {
	for _, v := range []uint64{s.Accesses, s.Writes, s.Hits, s.Misses, s.Bypasses,
		s.Evictions, s.Writebacks, s.Prefetches, s.UsefulPrefetches} {
		h.u64(v)
	}
}

func (h *hasher) sum() string {
	d := sha256.Sum256(h.b)
	return hex.EncodeToString(d[:12])
}

// digestSingle hashes a single-core run's instructions, cycles, IPC and
// MPKI bits, and L1/L2/LLC statistics.
func digestSingle(r sim.SingleResult) string {
	var h hasher
	h.u64(r.Instructions)
	h.u64(r.Cycles)
	h.f64(r.IPC)
	h.f64(r.MPKI)
	h.stats(r.L1)
	h.stats(r.L2)
	h.stats(r.LLC)
	return h.sum()
}

// digestMulti hashes a quad-core run's per-core IPC bits and first-pass
// instructions, summed cycles, MPKI bits and cache statistics.
func digestMulti(r sim.MulticoreResult) string {
	var h hasher
	for i := range r.IPC {
		h.f64(r.IPC[i])
		h.u64(r.Instructions[i])
	}
	h.u64(r.Cycles)
	h.f64(r.MPKI)
	h.stats(r.L1)
	h.stats(r.L2)
	h.stats(r.LLC)
	return h.sum()
}

// digestFloat hashes one reported value (MIN MPKI, a solo IPC, a
// weighted speedup) by its bits.
func digestFloat(v float64) string {
	var h hasher
	h.f64(v)
	return h.sum()
}

//go:embed digests.json
var digestsJSON []byte

// digestFile is digests.json: the per-cell digests of every cell any
// seed can draw, recorded with -record-digests at the commit that
// defined the benchmark.
type digestFile struct {
	Shape shape             `json:"shape"`
	Seeds []int64           `json:"seeds_checked"`
	Cells map[string]string `json:"cells"`
}

func loadDigests() (map[string]string, error) {
	var f digestFile
	if err := json.Unmarshal(digestsJSON, &f); err != nil {
		return nil, fmt.Errorf("digests.json: %w", err)
	}
	if len(f.Cells) == 0 {
		return nil, fmt.Errorf("digests.json: no cells recorded")
	}
	return f.Cells, nil
}

// recordDigests runs every workload's universe plan through the
// untraced entry points and writes the digests to path.
func recordDigests(path, workdir string) error {
	f := digestFile{Shape: machineShape(), Seeds: []int64{defaultSeed, heldOutSeed},
		Cells: map[string]string{}}
	for _, d := range workloadDefs {
		res, err := runUntraced(universe(d), workdir, false)
		if err != nil {
			return err
		}
		if len(res.Failed) > 0 {
			return fmt.Errorf("%s: cells failed while recording: %v", d.Name, res.Failed)
		}
		for k, v := range res.Digests {
			f.Cells[k] = v
		}
	}
	out, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}
