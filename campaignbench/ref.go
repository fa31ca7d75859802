package main

import (
	"fmt"
	"time"
)

// The reference kernel measures how fast the host runs right now, so
// that campaign times can be reported in units of it. On a shared host
// the same campaign's wall and CPU time drift by tens of percent within
// minutes; a fixed piece of work of the same kind, timed beside every
// repetition, drifts with it, and the ratio does not.
//
// The kernel is the benchmark's own code, independent of the simulator,
// so a change to the simulator moves the ratio by exactly as much as it
// moves the campaign's time. It models what the simulator spends its
// time on: a set-associative LRU cache, tag compares and recency
// updates over a multi-megabyte tag array, driven by a generated
// address stream with some reuse.

const (
	refSets     = 1 << 14 // 16384 sets × 16 ways × 8 B: 2 MiB of tags
	refWays     = 16
	refAccesses = 1 << 22 // per pass
	// refHits is one pass's hit count; a mismatch means the kernel did
	// not run as written, and the repetition fails.
	refHits = 2_157_134
	// refSamplePasses is how many passes run before and again after
	// each repetition's campaign.
	refSamplePasses = 3
)

// refNominalPassS is one pass's wall time on a quiet 2-vCPU Intel Xeon
// host (Go 1.24). setup_s is reported in seconds on a host that runs a
// pass in this time: the measured set-up time × refNominalPassS / the
// measured pass time.
const refNominalPassS = 0.15

// refKernel runs one pass of the kernel and returns its wall and CPU
// time.
func refKernel() (wallS, cpuS float64, err error) {
	cpu0 := cpuSeconds()
	start := time.Now()
	if h := refCache(); h != refHits {
		return 0, 0, fmt.Errorf("reference kernel: %d hits, want %d", h, refHits)
	}
	return time.Since(start).Seconds(), cpuSeconds() - cpu0, nil
}

// refCache drives one LRU cache with refAccesses generated addresses
// and returns its hit count.
func refCache() uint64 {
	tags := make([]uint64, refSets*refWays)
	for i := range tags {
		tags[i] = ^uint64(0)
	}
	x := uint64(0x9e3779b97f4a7c15)
	var hits, seq uint64
	for i := 0; i < refAccesses; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		var line uint64
		switch x & 3 {
		case 0: // a stride-one stream through 64 MiB of lines
			seq++
			line = seq & (1<<20 - 1)
		case 1: // a hot region of 8192 lines
			line = 1<<24 + (x>>8)&(1<<13-1)
		default: // scattered over a 2^18-line region
			line = 1<<25 + (x>>8)&(1<<18-1)
		}
		set := line & (refSets - 1)
		tag := line >> 14
		row := tags[set*refWays : set*refWays+refWays]
		w := 0
		for ; w < refWays; w++ {
			if row[w] == tag {
				break
			}
		}
		if w < refWays {
			hits++
		} else {
			w = refWays - 1
		}
		copy(row[1:w+1], row[:w])
		row[0] = tag
	}
	return hits
}
