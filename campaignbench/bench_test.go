package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestSameSeedSameCells(t *testing.T) {
	for _, d := range workloadDefs {
		a, b := draw(d, defaultSeed), draw(d, defaultSeed)
		if !reflect.DeepEqual(a.Names, b.Names) {
			t.Errorf("%s: seed %d drew %v then %v", d.Name, defaultSeed, a.Names, b.Names)
		}
		ka, err := cellKeys(a)
		if err != nil {
			t.Fatal(err)
		}
		kb, _ := cellKeys(b)
		if !reflect.DeepEqual(ka, kb) {
			t.Errorf("%s: same seed, different cell lists", d.Name)
		}
	}
}

func TestSeedsDrawWithinStrata(t *testing.T) {
	for _, d := range workloadDefs {
		if reflect.DeepEqual(draw(d, defaultSeed).Names, draw(d, heldOutSeed).Names) {
			t.Errorf("%s: default and held-out seeds draw the same cells", d.Name)
		}
		seen := make([]map[string]bool, len(d.Strata))
		for i := range seen {
			seen[i] = map[string]bool{}
		}
		for seed := int64(0); seed < 32; seed++ {
			p := draw(d, seed)
			if len(p.Names) != len(d.Strata) {
				t.Fatalf("%s seed %d: %d names for %d strata", d.Name, seed, len(p.Names), len(d.Strata))
			}
			for i, s := range d.Strata {
				n := 0
				for _, name := range p.Names {
					if name == s[0] || name == s[1] {
						n++
						seen[i][name] = true
					}
				}
				if n != 1 {
					t.Errorf("%s seed %d: %d names from stratum %v", d.Name, seed, n, s)
				}
			}
		}
		for i, s := range d.Strata {
			if len(seen[i]) != 2 {
				t.Errorf("%s: 32 seeds never drew both of %v", d.Name, s)
			}
		}
	}
}

// TestTracedMatchesUntraced runs every workload at a small scale both
// through the entry points and through the traced composition: every
// cell's digest must agree, and the spans must reconcile.
func TestTracedMatchesUntraced(t *testing.T) {
	for _, d := range workloadDefs {
		d.Scale = 0.01
		if d.Mixes {
			d.Scale = 0.004
		}
		p := draw(d, defaultSeed)
		dir := t.TempDir()
		u, err := runUntraced(p, dir, false)
		if err != nil {
			t.Fatal(err)
		}
		spans := filepath.Join(dir, "spans.json")
		tr, err := runTraced(p, spans)
		if err != nil {
			t.Fatal(err)
		}
		keys, err := cellKeys(p)
		if err != nil {
			t.Fatal(err)
		}
		if len(u.Failed)+len(tr.Failed) > 0 {
			t.Fatalf("%s: failed cells: untraced %v, traced %v", d.Name, u.Failed, tr.Failed)
		}
		for _, k := range keys {
			if u.Digests[k] == "" || u.Digests[k] != tr.Digests[k] {
				t.Errorf("%s: cell %s: untraced %q, traced %q", d.Name, k, u.Digests[k], tr.Digests[k])
			}
		}
		if len(u.Digests) != len(keys) || len(tr.Digests) != len(keys) {
			t.Errorf("%s: %d cells planned, %d untraced, %d traced digests", d.Name, len(keys), len(u.Digests), len(tr.Digests))
		}
		var got []span
		b, err := os.ReadFile(spans)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(b, &got); err != nil {
			t.Fatal(err)
		}
		if len(got) != int(tr.Layers["runner.jobs"]) {
			t.Errorf("%s: %d spans for %v jobs", d.Name, len(got), tr.Layers["runner.jobs"])
		}
		if err := reconcile(got); err != nil {
			t.Errorf("%s: written spans: %v", d.Name, err)
		}
	}
}

func TestReferenceKernel(t *testing.T) {
	w, c, err := refKernel()
	if err != nil {
		t.Fatal(err)
	}
	if w <= 0 || c <= 0 {
		t.Errorf("reference pass took %g s wall, %g s CPU", w, c)
	}
}

func TestReconcileRejectsOverlap(t *testing.T) {
	s := []span{{Cell: "c", WallNS: 100, Children: []child{
		{Name: "llc.access", TotalNS: 70}, {Name: "cpu.record", TotalNS: 40}, {Name: "sim.other", TotalNS: -10},
	}}}
	if reconcile(s) == nil {
		t.Error("negative sim.other accepted")
	}
	s[0].Children[2].TotalNS = 0
	if reconcile(s) == nil {
		t.Error("children summing past the wall accepted")
	}
	s[0].Children[1].TotalNS = 30
	if err := reconcile(s); err != nil {
		t.Error(err)
	}
}

func TestDigestsCoverEveryDrawableCell(t *testing.T) {
	recorded, err := loadDigests()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{}
	for _, d := range workloadDefs {
		keys, err := cellKeys(universe(d))
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range keys {
			want[k] = true
			if recorded[k] == "" {
				t.Errorf("no recorded digest for %s", k)
			}
		}
	}
	for k := range recorded {
		if !want[k] {
			t.Errorf("recorded digest for %s, which no seed can draw", k)
		}
	}
}

func TestCheckCountsMismatches(t *testing.T) {
	rep := &repResult{Digests: map[string]string{"a": "1", "b": "2"}}
	recorded := map[string]string{"a": "1", "b": "3", "c": "4"}
	var log bytes.Buffer
	if n, f := check([]string{"a", "b", "c"}, rep, recorded, &log); n != 3 || f != 2 {
		t.Errorf("check = %d attempted, %d failed; want 3, 2", n, f)
	}
}

func TestBenchmarkJSONMatchesCode(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloadDefs) {
		t.Fatalf("BENCHMARK.json has %d workloads, code %d", len(bj.Workloads), len(workloadDefs))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloadDefs[i].Name || w.Why != workloadDefs[i].Why {
			t.Errorf("workload %d: BENCHMARK.json %+v, code %s: %s", i, w, workloadDefs[i].Name, workloadDefs[i].Why)
		}
	}
	same := func(what string, got []struct{ Name, Unit string }, want []struct{ name, unit string }) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, code %d", what, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], code %s [%s]", what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", bj.EndToEnd, endToEnd)
	same("per_layer", bj.PerLayer, perLayer)
}

func TestCompareReportsShapeMismatch(t *testing.T) {
	dir := t.TempDir()
	a := record{Shape: machineShape(), Workload: "sweep_memo", Seed: 1,
		Result: result{Metrics: map[string]metric{"wall_ref": {14, "ref"}}}}
	b := a
	b.Shape.NumCPU++
	pa, pb := filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json")
	if err := writeJSON(pa, a); err != nil {
		t.Fatal(err)
	}
	if err := writeJSON(pb, b); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if code := compareRecords([]string{pa, pb}, &out, &out); code != 1 || !strings.Contains(out.String(), "shape mismatch") {
		t.Errorf("different shapes: exit %d, output %q", code, out.String())
	}
	out.Reset()
	if code := compareRecords([]string{pa, pa}, &out, &out); code != 0 || !strings.Contains(out.String(), "wall_ref") {
		t.Errorf("same shape: exit %d, output %q", code, out.String())
	}
}
