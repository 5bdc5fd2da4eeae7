package search

import (
	"flag"
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/objective"
)

// TestOverridesApply walks every knob: the zero value keeps the base,
// a set value overrides it (non-positive counts and rates keep the base
// too), the early-stop window defaults to 32, and each bad value is
// rejected with an error that names the knob.
func TestOverridesApply(t *testing.T) {
	base := DefaultConfig()
	base.SA.Batch = 2
	base.SchedSlice = 5
	weighted := func(area, reconf float64) *objective.Scalarizer {
		s := objective.FixedArch()
		s.Weights[objective.HWArea] = area
		s.Weights[objective.InitialReconfig] = reconf
		s.Weights[objective.DynamicReconfig] = reconf
		return &s
	}
	cases := []struct {
		name string
		o    Overrides
		want func(*Config) // edits base into the expected config
		err  string        // non-empty: Apply must fail naming this knob
	}{
		{name: "zero", want: func(*Config) {}},
		{name: "saIters", o: Overrides{SAIters: 1234}, want: func(c *Config) { c.SA.MaxIters = 1234 }},
		{name: "saIters<0", o: Overrides{SAIters: -1}, want: func(*Config) {}},
		{name: "quality", o: Overrides{Quality: 0.02}, want: func(c *Config) { c.SA.Quality = 0.02 }},
		{name: "quality<0", o: Overrides{Quality: -0.5}, want: func(*Config) {}},
		{name: "wArea", o: Overrides{WArea: 0.001}, want: func(c *Config) { c.Objective = weighted(0.001, 0) }},
		{name: "wReconf", o: Overrides{WReconf: 0.5}, want: func(c *Config) { c.Objective = weighted(0, 0.5) }},
		{name: "weights", o: Overrides{WArea: 0.001, WReconf: 0.5}, want: func(c *Config) { c.Objective = weighted(0.001, 0.5) }},
		{name: "batch", o: Overrides{Batch: 8}, want: func(c *Config) { c.SA.Batch = 8 }},
		{name: "batch1", o: Overrides{Batch: 1}, want: func(c *Config) { c.SA.Batch = 1 }},
		{name: "batch<0", o: Overrides{Batch: -3}, want: func(*Config) {}},
		{name: "earlyStop", o: Overrides{EarlyStopEpsilon: 0.01, EarlyStopWindow: 5},
			want: func(c *Config) { c.EarlyStopEpsilon, c.EarlyStopWindow = 0.01, 5 }},
		{name: "earlyStop/window0", o: Overrides{EarlyStopEpsilon: 0.5},
			want: func(c *Config) { c.EarlyStopEpsilon, c.EarlyStopWindow = 0.5, DefaultEarlyStopWindow }},
		{name: "earlyStop/window<0", o: Overrides{EarlyStopEpsilon: 0.5, EarlyStopWindow: -4},
			want: func(c *Config) { c.EarlyStopEpsilon, c.EarlyStopWindow = 0.5, DefaultEarlyStopWindow }},
		{name: "window alone", o: Overrides{EarlyStopWindow: 32}, want: func(*Config) {}},
		{name: "earlyStop<0", o: Overrides{EarlyStopEpsilon: -1, EarlyStopWindow: 8}, want: func(*Config) {}},
		{name: "schedSlice", o: Overrides{SchedSlice: 4}, want: func(c *Config) { c.SchedSlice = 4 }},
		{name: "transfer", o: Overrides{Transfer: true}, want: func(*Config) {}},
		{name: "quality NaN", o: Overrides{Quality: math.NaN()}, err: "quality"},
		{name: "quality Inf", o: Overrides{Quality: math.Inf(1)}, err: "quality"},
		{name: "wArea NaN", o: Overrides{WArea: math.NaN()}, err: "wArea"},
		{name: "wArea -Inf", o: Overrides{WArea: math.Inf(-1)}, err: "wArea"},
		{name: "wReconf NaN", o: Overrides{WReconf: math.NaN()}, err: "wReconf"},
		{name: "earlyStop Inf", o: Overrides{EarlyStopEpsilon: math.Inf(1)}, err: "earlyStopEpsilon"},
		{name: "earlyStop NaN", o: Overrides{EarlyStopEpsilon: math.NaN()}, err: "earlyStopEpsilon"},
		{name: "schedSlice<0", o: Overrides{SchedSlice: -3}, err: "schedSlice"},
	}
	for _, c := range cases {
		got := base
		err := c.o.Apply(&got)
		if c.err != "" {
			if err == nil || !strings.Contains(err.Error(), c.err) {
				t.Errorf("%s: err = %v, want one naming %q", c.name, err, c.err)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		want := base
		c.want(&want)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: Apply gave\n%+v\nwant\n%+v", c.name, got, want)
		}
	}
}

// TestOverridesRegisterFlags pins the shared flag names and defaults and
// that parsing them fills the struct.
func TestOverridesRegisterFlags(t *testing.T) {
	var o Overrides
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	o.RegisterFlags(fs)
	var names []string
	fs.VisitAll(func(f *flag.Flag) { names = append(names, f.Name+"="+f.DefValue) })
	sort.Strings(names)
	want := []string{"batch=0", "early-stop-window=32", "early-stop=0", "sched-slice=0", "transfer=false"}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("flags %v, want %v", names, want)
	}
	if err := fs.Parse([]string{"-batch", "4", "-early-stop", "0.5", "-early-stop-window", "0", "-sched-slice", "8", "-transfer"}); err != nil {
		t.Fatal(err)
	}
	if want := (Overrides{Batch: 4, EarlyStopEpsilon: 0.5, SchedSlice: 8, Transfer: true}); o != want {
		t.Fatalf("parsed %+v, want %+v", o, want)
	}
}
