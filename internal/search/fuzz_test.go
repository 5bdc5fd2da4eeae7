package search

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
)

// FuzzEvalPathEquivalence extends the core fuzz of the same name one
// layer up: randomized instances and budgets are driven through the
// composite scheduler — the portfolio (rr) or the bandit (ucb) by the
// policy byte, random slice length — with the SA members pinned to each
// evaluation path in turn, and the outcomes must be bit-identical. A divergence here that the core fuzz
// misses would implicate the scheduler's budget accounting (the arm
// sequence feeding different iteration counts into the two paths). The
// same input is also replayed to pin scheduler determinism. Run with
//
//	go test -fuzz=FuzzEvalPathEquivalence ./internal/search
//
// to search beyond the seeded corpus.
func FuzzEvalPathEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(14), uint16(30), uint8(0), uint8(0))
	f.Add(int64(42), uint8(20), uint16(50), uint8(1), uint8(3))
	f.Add(int64(-7), uint8(10), uint16(24), uint8(1), uint8(1))
	f.Add(int64(977), uint8(28), uint16(64), uint8(1), uint8(16))

	f.Fuzz(func(t *testing.T, seed int64, nTasks uint8, budget uint16, policy, slice uint8) {
		tasks := 6 + int(nTasks)%30
		rcfg := apps.DefaultRandomConfig()
		rcfg.Tasks = tasks
		if layers := tasks / 5; layers >= 2 {
			rcfg.Layers = layers
		}
		app, err := apps.Layered(rand.New(rand.NewSource(seed)), rcfg)
		if err != nil {
			t.Skip() // degenerate generator parameters
		}
		arch := apps.MotionArch(1500, apps.DefaultMotionConfig())
		steps := 4 + int(budget)%96
		kind := "portfolio" // rr
		if policy%2 == 1 {
			kind = "bandit" // ucb
		}

		run := func(mode core.EvalMode) (float64, Stats) {
			cfg := DefaultConfig()
			cfg.SA.MaxIters = 600
			cfg.SA.Warmup = 150
			cfg.SA.QuenchIters = 150
			cfg.SA.EvalMode = mode
			cfg.GA.Population = 16
			cfg.GA.Generations = 6
			cfg.GA.Stall = 3
			cfg.SchedSlice = int(slice % 32)
			fac, err := NewFactory(kind, app, arch, cfg)
			if err != nil {
				t.Fatal(err)
			}
			out, st, err := RunStats(context.Background(), fac, seed, steps)
			if err != nil {
				t.Skipf("no feasible solution in budget: %v", err)
			}
			return out.Cost, st
		}

		fullCost, fullSt := run(core.EvalFull)
		incCost, incSt := run(core.EvalIncremental)
		if fullCost != incCost {
			t.Fatalf("eval paths diverged through the scheduler: full %v vs incremental %v", fullCost, incCost)
		}
		if fullSt.Evaluations != incSt.Evaluations || fullSt.Steps != incSt.Steps {
			t.Fatalf("eval paths diverged in accounting: %+v vs %+v", fullSt, incSt)
		}
		// Replay determinism: the same fingerprinted inputs give the same
		// arm totals.
		reCost, reSt := run(core.EvalIncremental)
		if reCost != incCost {
			t.Fatalf("scheduler replay diverged: %v vs %v", reCost, incCost)
		}
		if incSt.Sched == nil || reSt.Sched == nil {
			t.Fatal("scheduler run without sched telemetry")
		}
		for i, a := range incSt.Sched.Arms {
			if b := reSt.Sched.Arms[i]; a != b {
				t.Fatalf("arm %d accounting diverged on replay: %+v vs %+v", i, a, b)
			}
		}
	})
}
