package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/scenario"
)

// TestEvalAutoCorpusPaths pins the path EvalAuto picks on every corpus
// scenario. The pins follow the per-run measurement in DESIGN.md §3.4,
// where the faster path agrees with the rule on all 17 scenarios
// (pipeline-chain-large narrowly); a scenario added to the corpus must be
// measured and pinned here.
func TestEvalAutoCorpusPaths(t *testing.T) {
	want := map[string]core.EvalMode{
		"forkjoin-tiny":         core.EvalFull,
		"forkjoin-medium":       core.EvalFull,
		"forkjoin-large":        core.EvalIncremental,
		"layered-small":         core.EvalFull,
		"layered-medium":        core.EvalFull,
		"layered-large":         core.EvalIncremental,
		"layered-xl":            core.EvalIncremental,
		"paper-fig2":            core.EvalFull,
		"paper-small-device":    core.EvalFull,
		"pipeline-chain-tiny":   core.EvalFull,
		"pipeline-fft-small":    core.EvalFull,
		"pipeline-jpeg":         core.EvalFull,
		"pipeline-chain-large":  core.EvalIncremental,
		"reconfig-fast-medium":  core.EvalFull,
		"reconfig-slow-medium":  core.EvalFull,
		"sdf-upsample-tiny":     core.EvalFull,
		"sdf-ratechange-medium": core.EvalFull,
	}
	all := scenario.All()
	if len(all) != len(want) {
		t.Errorf("corpus has %d scenarios, %d pinned", len(all), len(want))
	}
	for _, s := range all {
		app, arch, err := s.Instantiate()
		if err != nil {
			t.Fatal(err)
		}
		w, ok := want[s.Name]
		if !ok {
			t.Errorf("%s: no pinned path", s.Name)
			continue
		}
		if got := core.ResolveEvalMode(core.EvalAuto, app, arch); got != w {
			t.Errorf("%s: EvalAuto resolves to %d, pinned %d", s.Name, got, w)
		}
	}
}
