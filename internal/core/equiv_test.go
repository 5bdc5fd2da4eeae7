package core

import (
	"math/rand"
	"testing"

	"repro/internal/apps"
	"repro/internal/model"
)

// equivTracePoint is the per-iteration fingerprint compared between the two
// evaluation paths: if any accept/reject decision or any evaluated cost
// ever differed, the fingerprints diverge at that iteration.
type equivTracePoint struct {
	cost     float64
	makespan model.Time
	accepted bool
	moveKind int
}

// runWithMode runs one Explore on the given path with a trace tap. The
// full path runs without its stop hook: it evaluates every move in full,
// the exact reference that the incremental path's cuts must reproduce.
func runWithMode(t *testing.T, app *model.App, arch *model.Arch, cfg Config, mode EvalMode) (*Result, []equivTracePoint) {
	t.Helper()
	cfg.EvalMode = mode
	var trace []equivTracePoint
	cfg.Trace = func(p TracePoint) {
		trace = append(trace, equivTracePoint{
			cost:     p.Cost,
			makespan: p.Makespan,
			accepted: p.Accepted,
			moveKind: p.MoveKind,
		})
	}
	e, err := New(app, arch, cfg)
	if err != nil {
		t.Fatalf("mode %v: %v", mode, err)
	}
	if mode == EvalFull {
		e.stop = nil
	}
	res, err := e.Run()
	if err != nil {
		t.Fatalf("mode %v: %v", mode, err)
	}
	return res, trace
}

// wideArch is a multi-processor, multi-RC template with an ASIC, so that
// the equivalence runs exercise every move kind including architecture
// exploration.
func wideArch(contention bool) *model.Arch {
	return &model.Arch{
		Name: "wide",
		Processors: []model.Processor{
			{Name: "p0", Cost: 10},
			{Name: "p1", Cost: 12, SpeedFactor: 1.5},
		},
		RCs: []model.RC{
			{Name: "rc0", NCLB: 2000, TR: model.FromMicros(22.5), Cost: 25},
			{Name: "rc1", NCLB: 900, TR: model.FromMicros(15), Cost: 15},
		},
		ASICs: []model.ASIC{{Name: "asic0", Cost: 40}},
		Bus:   model.Bus{Rate: 80_000_000, Contention: contention},
	}
}

// assertEquivalent replays one configuration through both evaluation paths
// and requires bit-identical per-iteration traces and final results.
func assertEquivalent(t *testing.T, name string, app *model.App, arch *model.Arch, cfg Config) {
	t.Helper()
	resFull, traceFull := runWithMode(t, app, arch, cfg, EvalFull)
	resInc, traceInc := runWithMode(t, app, arch, cfg, EvalIncremental)

	if len(traceFull) != len(traceInc) {
		t.Fatalf("%s: trace lengths differ: full %d, incremental %d", name, len(traceFull), len(traceInc))
	}
	for i := range traceFull {
		if traceFull[i] != traceInc[i] {
			t.Fatalf("%s: traces diverge at iteration %d:\n  full        %+v\n  incremental %+v",
				name, i, traceFull[i], traceInc[i])
		}
	}
	if resFull.BestEval != resInc.BestEval {
		t.Fatalf("%s: best evaluations differ:\n  full        %+v\n  incremental %+v",
			name, resFull.BestEval, resInc.BestEval)
	}
	if resFull.InitialEval != resInc.InitialEval {
		t.Fatalf("%s: initial evaluations differ", name)
	}
	if resFull.Stats != resInc.Stats {
		t.Fatalf("%s: run statistics differ:\n  full        %+v\n  incremental %+v",
			name, resFull.Stats, resInc.Stats)
	}
}

// TestEvalPathEquivalence replays long random move streams (full annealing
// runs, which propose, apply, reject and revert thousands of moves) through
// both evaluation paths and requires identical Results and identical
// accept/reject decisions at every iteration.
func TestEvalPathEquivalence(t *testing.T) {
	mcfg := apps.DefaultMotionConfig()
	motion := apps.MotionDetection(mcfg)

	for seed := int64(1); seed <= 3; seed++ {
		cfg := DefaultConfig()
		cfg.Seed = seed
		cfg.MaxIters = 1500
		cfg.Warmup = 300
		cfg.QuenchIters = 500
		assertEquivalent(t, "motion/2000", motion, apps.MotionArch(2000, mcfg), cfg)

		// Small device: context churn (spawn-on-overflow, deletions).
		cfg.Seed = seed ^ 0x77
		assertEquivalent(t, "motion/600", motion, apps.MotionArch(600, mcfg), cfg)
	}

	// Wide template with every move kind enabled: architecture exploration
	// (m3/m4), context splitting, ASICs, a scaled processor.
	for seed := int64(0); seed < 3; seed++ {
		rcfg := apps.DefaultRandomConfig()
		rcfg.Tasks = 30
		app, err := apps.Layered(rand.New(rand.NewSource(seed)), rcfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig()
		cfg.Seed = 100 + seed
		cfg.MaxIters = 1200
		cfg.Warmup = 250
		cfg.QuenchIters = 400
		cfg.ExploreArch = true
		cfg.EnableCtxSplit = true
		cfg.Deadline = model.FromMillis(20)
		assertEquivalent(t, "layered30/wide", app, wideArch(true), cfg)

		// Contention-free bus: the single-graph incremental configuration.
		cfg.Seed = 200 + seed
		assertEquivalent(t, "layered30/wide/free", app, wideArch(false), cfg)
	}
}
