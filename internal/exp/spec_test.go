package exp

import (
	"reflect"
	"strings"
	"testing"
)

// TestSpecStringRoundTrip pins the compact text form: ParseSpec
// inverts String exactly for every field combination.
func TestSpecStringRoundTrip(t *testing.T) {
	for _, s := range []Spec{
		{Policy: "Sampler"},
		{Policy: "dbrb(base=random,pred=counting)", Workloads: []string{"456.hmmer", "470.lbm"}},
		{Policy: "lru", Mixes: []string{"mix1", "mix2"}},
		{Policy: "rrip", Workloads: []string{"subset"}, Cores: 2, LLC: "llc(mb=4)", Scale: 0.25},
		{Policy: "TADIP", Workloads: []string{"all"}, Mixes: []string{"all"}, Scale: 1},
	} {
		text := s.String()
		got, err := ParseSpec(text)
		if err != nil {
			t.Errorf("%q: %v", text, err)
			continue
		}
		if !reflect.DeepEqual(got, s) {
			t.Errorf("ParseSpec(%q) = %+v, want %+v", text, got, s)
		}
		if got.String() != text {
			t.Errorf("re-rendered %q != %q", got.String(), text)
		}
	}
}

func TestParseSpecErrors(t *testing.T) {
	for _, s := range []string{
		"policy",                 // not key=value
		"policy=lru;policy=rrip", // duplicate field
		"banana=1",               // unknown field
		"policy=lru;cores=two",   // non-integer cores
		"policy=lru;scale=fast",  // non-numeric scale
	} {
		if _, err := ParseSpec(s); err == nil {
			t.Errorf("ParseSpec(%q) accepted", s)
		}
	}
}

func TestSpecResolveDefaults(t *testing.T) {
	r, err := Spec{Policy: "Sampler", Workloads: []string{"subset"}}.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if r.Cores != 1 || r.Scale != 1 || r.LLCSet {
		t.Errorf("defaults = cores %d, scale %g, llcSet %v", r.Cores, r.Scale, r.LLCSet)
	}
	if len(r.Workloads) != 19 {
		t.Errorf("subset expanded to %d workloads, want 19", len(r.Workloads))
	}
	if got := r.LLCFor(1).SizeBytes; got != 2<<20 {
		t.Errorf("default LLC = %d bytes, want 2MB", got)
	}
	if got := r.LLCFor(4).SizeBytes; got != 8<<20 {
		t.Errorf("default quad-core LLC = %d bytes, want 8MB", got)
	}
}

func TestSpecResolveExpansions(t *testing.T) {
	r, err := Spec{Policy: "lru", Workloads: []string{"all"}, Mixes: []string{"all"}}.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Workloads) != 29 || len(r.Mixes) != 10 {
		t.Errorf("all expanded to %d workloads, %d mixes", len(r.Workloads), len(r.Mixes))
	}
}

func TestSpecResolveErrors(t *testing.T) {
	cases := []struct {
		spec Spec
		want string // substring of the error
	}{
		{Spec{}, "no policy"},
		{Spec{Policy: "lru"}, "no workloads"},
		{Spec{Policy: "nosuch", Workloads: []string{"subset"}}, "unknown policy"},
		{Spec{Policy: "lru", Workloads: []string{"999.nope"}}, "valid benchmarks"},
		{Spec{Policy: "lru", Mixes: []string{"mix99"}}, "valid mixes"},
		{Spec{Policy: "lru", Workloads: []string{"subset"}, Cores: -1}, "cores"},
		{Spec{Policy: "lru", Workloads: []string{"subset"}, Scale: -0.5}, "scale"},
		{Spec{Policy: "lru", Workloads: []string{"subset"}, LLC: "llc(mb=3)"}, "sets"},
	}
	for _, c := range cases {
		_, err := c.spec.Resolve()
		if err == nil {
			t.Errorf("%+v accepted", c.spec)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%+v: error %q does not mention %q", c.spec, err, c.want)
		}
	}
}

// TestResolvedStringExpandsDefaults checks the manifest echo: every
// default is made explicit and the policy appears in canonical
// expression form.
func TestResolvedStringExpandsDefaults(t *testing.T) {
	r, err := Spec{Policy: "Sampler", Workloads: []string{"456.hmmer"}}.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	got := r.String()
	for _, want := range []string{
		"policy=dbrb(base=lru,pred=sampler)",
		"workloads=456.hmmer",
		"cores=1",
		"llc=llc(mb=2,ways=16)",
		"scale=1",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("Resolved.String() = %q, missing %q", got, want)
		}
	}
	// The echo itself must re-parse and re-resolve.
	spec, err := ParseSpec(got)
	if err != nil {
		t.Fatalf("echo %q does not re-parse: %v", got, err)
	}
	if _, err := spec.Resolve(); err != nil {
		t.Fatalf("echo %q does not re-resolve: %v", got, err)
	}
}
