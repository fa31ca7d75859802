package dbrb

import "sort"

// Per-PC death attribution: the introspection view of the PC→death
// correlation the paper's predictors exploit. When enabled, the policy
// partitions its aggregate Accuracy counters by program counter —
// every prediction (and dead verdict) is charged to the PC of the
// access predicted on, every false positive to the PC whose prediction
// set the standing dead bit — and additionally charges each eviction
// to the PC that filled the evicted block.
//
// Attribution is strictly opt-in (EnableAttribution, called before the
// policy's Reset): when off, the only cost on the access path is one
// nil check per hook, and the steady-state LLC access stays
// allocation-free (pinned by TestLLCAccessSteadyStateAllocs).

// PCStats is one program counter's share of the policy's activity.
type PCStats struct {
	// Predictions, Positives and FalsePositives partition the
	// aggregate Accuracy counters of the same names.
	Predictions    uint64
	Positives      uint64
	FalsePositives uint64
	// Evictions counts evictions of blocks this PC filled.
	Evictions uint64
}

func (s *PCStats) add(o PCStats) {
	s.Predictions += o.Predictions
	s.Positives += o.Positives
	s.FalsePositives += o.FalsePositives
	s.Evictions += o.Evictions
}

// PCRow is one attribution table entry.
type PCRow struct {
	PC uint64
	PCStats
}

// Attribution is the per-PC table plus the per-line provenance state
// that makes exact attribution possible: which PC filled each line and
// which PC's prediction set each line's standing dead bit. The table is
// an index map over a flat arena of PCStats rather than a map of
// pointers: counter bumps for the (few, hot) distinct PCs then land in
// one contiguous array, and the PC set a workload touches stays small,
// so the map is consulted only to translate PC → arena index.
type Attribution struct {
	index map[uint64]int32
	arena []PCStats
	pcs   []uint64 // arena index → PC (for iteration)
	// fillPC is the PC of the access that filled each line (0 for
	// invalid lines).
	fillPC []uint64
	// deadPC is the PC whose prediction set the line's standing dead
	// bit; meaningful only while the policy's dead bit is set.
	deadPC []uint64
	ways   int
}

func newAttribution(sets, ways int) *Attribution {
	return &Attribution{
		index:  make(map[uint64]int32),
		fillPC: make([]uint64, sets*ways),
		deadPC: make([]uint64, sets*ways),
		ways:   ways,
	}
}

func (at *Attribution) at(pc uint64) *PCStats {
	i, ok := at.index[pc]
	if !ok {
		i = int32(len(at.arena))
		at.index[pc] = i
		at.arena = append(at.arena, PCStats{})
		at.pcs = append(at.pcs, pc)
	}
	return &at.arena[i]
}

// predicted charges one prediction (and, when dead, one positive) to
// pc.
func (at *Attribution) predicted(pc uint64, dead bool) {
	s := at.at(pc)
	s.Predictions++
	if dead {
		s.Positives++
	}
}

// falsePositive charges a false positive to the PC that made the
// standing dead prediction.
func (at *Attribution) falsePositive(pc uint64) { at.at(pc).FalsePositives++ }

// evicted charges an eviction to the PC that filled the line.
func (at *Attribution) evicted(pc uint64) { at.at(pc).Evictions++ }

// Totals sums the table. By construction Predictions, Positives and
// FalsePositives equal the policy's aggregate Accuracy counters — the
// reconciliation invariant the report generator and tests check.
func (at *Attribution) Totals() PCStats {
	var t PCStats
	for i := range at.arena {
		t.add(at.arena[i])
	}
	return t
}

// Rows returns the whole table in deterministic order: dead verdicts
// descending, then predictions descending, then PC ascending.
func (at *Attribution) Rows() []PCRow {
	rows := make([]PCRow, 0, len(at.arena))
	for i := range at.arena {
		rows = append(rows, PCRow{PC: at.pcs[i], PCStats: at.arena[i]})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Positives != rows[j].Positives {
			return rows[i].Positives > rows[j].Positives
		}
		if rows[i].Predictions != rows[j].Predictions {
			return rows[i].Predictions > rows[j].Predictions
		}
		return rows[i].PC < rows[j].PC
	})
	return rows
}

// TopK returns the k highest-ranked rows plus, when the table is
// larger, a rollup row aggregating the remainder (rolled reports
// whether one exists), so column sums over rows+rollup always equal
// Totals.
func (at *Attribution) TopK(k int) (rows []PCRow, rollup PCRow, rolled bool) {
	rows = at.Rows()
	if k <= 0 || len(rows) <= k {
		return rows, PCRow{}, false
	}
	var rest PCRow
	for _, r := range rows[k:] {
		rest.PCStats.add(r.PCStats)
	}
	return rows[:k], rest, true
}

// EnableAttribution turns on per-PC attribution. Call it before the
// policy is handed to cache.New: the table and per-line provenance
// state are sized at the policy's Reset, so enabling afterwards takes
// effect only at the next Reset.
func (p *Policy) EnableAttribution() { p.attrEnabled = true }

// Attribution returns the per-PC table, or nil when attribution was
// never enabled.
func (p *Policy) Attribution() *Attribution { return p.attr }
