package search

import (
	"context"
	"strings"
	"testing"
)

// TestFingerprintBatchAndEarlyStop pins the memoization contract of the new
// knobs: serial widths (<=1) leave the fingerprint byte-identical to
// earlier releases, a batched width separates the cache key, and the
// early-stop knobs separate keys exactly when enabled.
func TestFingerprintBatchAndEarlyStop(t *testing.T) {
	app, arch := motionSetup(2000)
	fp := func(mutate func(*Config)) string {
		cfg := fastConfig()
		if mutate != nil {
			mutate(&cfg)
		}
		f, err := NewFactory("sa", app, arch, cfg)
		if err != nil {
			t.Fatal(err)
		}
		s, ok := f.Fingerprint()
		if !ok {
			t.Fatal("configuration unexpectedly uncacheable")
		}
		return s
	}

	base := fp(nil)
	if strings.Contains(base, "Batch") || strings.Contains(base, "EarlyStop") {
		t.Fatalf("off-by-default knobs leak into the serial fingerprint: %s", base)
	}
	if got := fp(func(c *Config) { c.SA.Batch = 1 }); got != base {
		t.Fatalf("batch=1 changed the fingerprint:\n  base %s\n  got  %s", base, got)
	}
	batched := fp(func(c *Config) { c.SA.Batch = 8 })
	if batched == base {
		t.Fatal("batch=8 shares the serial fingerprint — batched and serial runs would conflate in the cache")
	}
	early := fp(func(c *Config) { c.EarlyStopEpsilon = 0.01; c.EarlyStopWindow = 8 })
	if early == base {
		t.Fatal("early-stop knobs share the unbounded fingerprint — truncated runs would poison the cache")
	}
}

// TestEarlyStopTruncates: with an epsilon so large every step counts as
// stagnation, the run must end after roughly one window and report it;
// with the knob off the run consumes its whole budget.
func TestEarlyStopTruncates(t *testing.T) {
	app, arch := motionSetup(2000)

	cfg := fastConfig()
	full, err := NewFactory("sa", app, arch, cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, fullStats, err := RunStats(context.Background(), full, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if fullStats.EarlyStopped {
		t.Fatal("unmonitored run reported an early stop")
	}

	cfg.EarlyStopEpsilon = 1.0 // any improvement below 100% counts as stagnation
	cfg.EarlyStopWindow = 4
	trunc, err := NewFactory("sa", app, arch, cfg)
	if err != nil {
		t.Fatal(err)
	}
	out, truncStats, err := RunStats(context.Background(), trunc, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !truncStats.EarlyStopped {
		t.Fatalf("aggressive early stop never fired: %+v", truncStats)
	}
	if truncStats.Steps >= fullStats.Steps {
		t.Fatalf("early-stopped run took %d steps, full run %d", truncStats.Steps, fullStats.Steps)
	}
	if out == nil || out.Best == nil {
		t.Fatal("early-stopped run returned no solution")
	}
}

// TestBatchedRunStatsDeterministic: the batched SA strategy behind the
// driver is a pure function of (seed, batch) and reports the speculation
// telemetry through search.Stats.
func TestBatchedRunStatsDeterministic(t *testing.T) {
	app, arch := motionSetup(2000)
	cfg := fastConfig()
	cfg.SA.Batch = 8

	run := func() (float64, Stats) {
		f, err := NewFactory("sa", app, arch, cfg)
		if err != nil {
			t.Fatal(err)
		}
		out, st, err := RunStats(context.Background(), f, 7, 0)
		if err != nil {
			t.Fatal(err)
		}
		return out.Cost, st
	}

	costA, statsA := run()
	costB, statsB := run()
	if costA != costB || statsA != statsB {
		t.Fatalf("repeating the batched run changed it:\n  a cost %v stats %+v\n  b cost %v stats %+v",
			costA, statsA, costB, statsB)
	}
	if statsA.Speculated == 0 {
		t.Fatal("batched run reported no speculation")
	}
	if statsA.Evaluations == 0 {
		t.Fatal("batched run reported no evaluations")
	}
	var accepted int64
	for k := range statsA.MoveStats.Accepted {
		accepted += statsA.MoveStats.Accepted[k]
	}
	if accepted == 0 {
		t.Fatal("batched run reported no per-kind acceptances")
	}
}
