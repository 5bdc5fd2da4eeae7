package core

import (
	"math/rand"
	"testing"

	"repro/internal/apps"
	"repro/internal/model"
	"repro/internal/objective"
)

// FuzzEvalPathEquivalence drives randomized annealing runs — random task
// graph, random knob settings, random seed, random speculative-batch
// width, all drawn from the fuzz input — through both evaluation paths and
// requires bit-identical traces, results and in-run fronts. The full path
// runs without its stop hook and evaluates every move in full, while the
// incremental path cuts rejected moves short at their chain-free bound,
// so this is also the oracle of those cuts (with and without a front to
// offer to). Run with
//
//	go test -fuzz=FuzzEvalPathEquivalence ./internal/core
//
// to search for divergences beyond the seeded corpus.
func FuzzEvalPathEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(18), uint8(0b011), uint16(400), uint8(0))
	f.Add(int64(42), uint8(25), uint8(0b111), uint16(700), uint8(1))
	f.Add(int64(-7), uint8(12), uint8(0b101), uint16(300), uint8(4))
	f.Add(int64(977), uint8(35), uint8(0b110), uint16(500), uint8(8))
	f.Add(int64(31), uint8(20), uint8(0b010), uint16(600), uint8(19))
	f.Add(int64(5), uint8(30), uint8(0b1001), uint16(900), uint8(0))
	// Parallel flows, also beside order and context edges.
	f.Add(int64(3), uint8(16), uint8(0b10001), uint16(600), uint8(0))
	f.Add(int64(8), uint8(24), uint8(0b10111), uint16(800), uint8(4))

	f.Fuzz(func(t *testing.T, seed int64, nTasks, knobs uint8, iters uint16, batch uint8) {
		tasks := 6 + int(nTasks)%40
		rcfg := apps.DefaultRandomConfig()
		rcfg.Tasks = tasks
		if layers := tasks / 5; layers >= 2 {
			rcfg.Layers = layers
		}
		app, err := apps.Layered(rand.New(rand.NewSource(seed)), rcfg)
		if err != nil {
			t.Skip() // degenerate generator parameters
		}
		if knobs&0b10000 != 0 {
			addParallelFlows(app)
		}
		arch := wideArch(knobs&0b001 != 0)

		cfg := DefaultConfig()
		cfg.Seed = seed
		cfg.MaxIters = 100 + int(iters)%1200
		cfg.Warmup = cfg.MaxIters / 5
		cfg.QuenchIters = cfg.MaxIters / 4
		cfg.ExploreArch = knobs&0b010 != 0
		cfg.EnableCtxSplit = knobs&0b100 != 0
		cfg.Deadline = model.FromMillis(15)
		if knobs&0b1000 != 0 {
			cfg.FrontMetrics = []objective.Metric{objective.HWArea, objective.Makespan}
		}
		// Speculative batching must preserve the equivalence too: the batch
		// width reshuffles the trajectory, but full and incremental must
		// still agree on it bit for bit.
		cfg.Batch = int(batch) % 17

		resFull, traceFull := runWithMode(t, app, arch, cfg, EvalFull)
		resInc, traceInc := runWithMode(t, app, arch, cfg, EvalIncremental)
		if len(traceFull) != len(traceInc) {
			t.Fatalf("trace lengths differ: %d vs %d", len(traceFull), len(traceInc))
		}
		for i := range traceFull {
			if traceFull[i] != traceInc[i] {
				t.Fatalf("traces diverge at iteration %d: full %+v, incremental %+v",
					i, traceFull[i], traceInc[i])
			}
		}
		if resFull.BestEval != resInc.BestEval || resFull.Stats != resInc.Stats {
			t.Fatalf("results differ: full %+v/%+v, incremental %+v/%+v",
				resFull.BestEval, resFull.Stats, resInc.BestEval, resInc.Stats)
		}
		if resFull.Front != nil {
			assertSameFront(t, resFull.Front.Points(), resInc.Front.Points())
		}
	})
}

// addParallelFlows gives every third flow of app a parallel twin of
// another volume: a flow edge must live beside its twin and beside any
// order or context edge that joins the same task pair.
func addParallelFlows(app *model.App) {
	for k, n := 0, len(app.Flows); k < n; k += 3 {
		fl := app.Flows[k]
		fl.Qty = fl.Qty/2 + 1024
		app.Flows = append(app.Flows, fl)
	}
}
