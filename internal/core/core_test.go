package core

import (
	"math/rand"
	"testing"

	"repro/internal/apps"
	"repro/internal/model"
	"repro/internal/objective"
	"repro/internal/sched"
)

func motionSetup(nclb int) (*model.App, *model.Arch) {
	cfg := apps.DefaultMotionConfig()
	return apps.MotionDetection(cfg), apps.MotionArch(nclb, cfg)
}

func TestExploreMotionImprovesAndStaysValid(t *testing.T) {
	app, arch := motionSetup(2000)
	cfg := DefaultConfig()
	cfg.MaxIters = 3000
	cfg.Warmup = 600
	cfg.Seed = 7
	cfg.Paranoid = true // every accepted state re-validated
	res, err := Explore(app, arch, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.BestEval.Makespan >= res.InitialEval.Makespan {
		t.Fatalf("no improvement: best %v vs initial %v", res.BestEval.Makespan, res.InitialEval.Makespan)
	}
	if err := sched.CheckMapping(app, arch, res.Best); err != nil {
		t.Fatalf("best mapping invalid: %v", err)
	}
	// The stored evaluation must match a fresh evaluation of the mapping.
	fresh, err := sched.NewEvaluator(app, arch).Evaluate(res.Best)
	if err != nil {
		t.Fatal(err)
	}
	if fresh != res.BestEval {
		t.Fatalf("stored evaluation %+v != fresh %+v", res.BestEval, fresh)
	}
	if res.Stats.Accepted == 0 || res.Stats.Iters == 0 {
		t.Fatalf("implausible stats: %+v", res.Stats)
	}
}

func TestExploreDeterministicForSeed(t *testing.T) {
	run := func() model.Time {
		app, arch := motionSetup(2000)
		cfg := DefaultConfig()
		cfg.MaxIters = 1500
		cfg.Warmup = 300
		cfg.Seed = 99
		res, err := Explore(app, arch, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.BestEval.Makespan
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("nondeterministic: %v vs %v", a, b)
	}
}

func TestExploreSeedsDiffer(t *testing.T) {
	results := map[model.Time]bool{}
	for seed := int64(1); seed <= 3; seed++ {
		app, arch := motionSetup(2000)
		cfg := DefaultConfig()
		cfg.MaxIters = 800
		cfg.Warmup = 200
		cfg.Seed = seed
		res, err := Explore(app, arch, cfg)
		if err != nil {
			t.Fatal(err)
		}
		results[res.BestEval.Makespan] = true
	}
	if len(results) < 2 {
		t.Log("warning: three seeds converged to identical makespans (possible but unlikely)")
	}
}

func TestParanoidRandomApps(t *testing.T) {
	// Hammer the move machinery on random layered graphs, on both
	// evaluation paths, half the runs with a front. Paranoid mode panics
	// on any mapping corruption, on an incremental evaluation a full
	// rebuild contradicts, on a move cut at a bound that its exact cost or
	// the front does not respect, on a skipped no-op reorder whose
	// evaluation is not the current one, and on a refused placement that a
	// full rebuild finds acyclic.
	var cuts, fullCuts, noops, refusals int64
	for seed := int64(0); seed < 4; seed++ {
		rcfg := apps.DefaultRandomConfig()
		rcfg.Tasks = 25
		app, err := apps.Layered(rand.New(rand.NewSource(seed)), rcfg)
		if err != nil {
			t.Fatal(err)
		}
		arch := apps.MotionArch(1200, apps.DefaultMotionConfig())
		cfg := DefaultConfig()
		cfg.MaxIters = 1200
		cfg.Warmup = 200
		cfg.Seed = seed
		cfg.Paranoid = true
		if seed%2 == 1 {
			cfg.FrontMetrics = []objective.Metric{objective.HWArea, objective.Makespan}
		}
		for _, mode := range []EvalMode{EvalFull, EvalIncremental} {
			cfg.EvalMode = mode
			e, err := New(app, arch, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := e.Run(); err != nil {
				t.Fatal(err)
			}
			cuts += e.cuts
			noops += e.noops
			refusals += e.refusals
			if mode == EvalFull {
				fullCuts += e.cuts
			}
		}
	}
	if cuts == 0 || fullCuts == 0 || noops == 0 || refusals == 0 {
		t.Fatalf("the shortcuts went unchecked: %d cuts (%d on the full path), %d no-op reorders, %d refusals",
			cuts, fullCuts, noops, refusals)
	}
}

func TestTraceStream(t *testing.T) {
	app, arch := motionSetup(2000)
	cfg := DefaultConfig()
	cfg.MaxIters = 500
	cfg.Warmup = 100
	var points []TracePoint
	cfg.Trace = func(p TracePoint) { points = append(points, p) }
	if _, err := Explore(app, arch, cfg); err != nil {
		t.Fatal(err)
	}
	if len(points) != 500 {
		t.Fatalf("trace points = %d, want 500", len(points))
	}
	for i, p := range points {
		if p.Iter != i {
			t.Fatalf("iteration %d labeled %d", i, p.Iter)
		}
		if p.Contexts < 0 || p.Cost < 0 {
			t.Fatalf("nonsense trace point %+v", p)
		}
		if p.Makespan <= 0 {
			t.Fatalf("non-positive makespan at iter %d", i)
		}
	}
}

func TestNewValidatesInputs(t *testing.T) {
	app, arch := motionSetup(2000)
	if _, err := New(&model.App{}, arch, DefaultConfig()); err == nil {
		t.Fatal("empty app accepted")
	}
	if _, err := New(app, &model.Arch{}, DefaultConfig()); err == nil {
		t.Fatal("empty arch accepted")
	}
	noProc := &model.Arch{RCs: arch.RCs, Bus: arch.Bus}
	if _, err := New(app, noProc, DefaultConfig()); err == nil {
		t.Fatal("processor-less arch accepted")
	}
}

// mustExplorer builds an explorer without running it.
func mustExplorer(t *testing.T, app *model.App, arch *model.Arch, seed int64) *Explorer {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Seed = seed
	cfg.Paranoid = true
	e, err := New(app, arch, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestMoveMechanicsDirect(t *testing.T) {
	app, arch := motionSetup(2000)
	e := mustExplorer(t, app, arch, 5)
	rng := rand.New(rand.NewSource(6))

	applied, infeasible := 0, 0
	for i := 0; i < 4000; i++ {
		mv := e.Propose(rng)
		if mv == nil {
			infeasible++
			continue
		}
		before := e.curCost
		if !mv.Apply(nil) {
			infeasible++
			// State must be untouched after a failed apply.
			if e.curCost != before {
				t.Fatal("failed Apply changed the cost")
			}
			if err := sched.CheckMapping(app, arch, e.cur); err != nil {
				t.Fatalf("failed Apply corrupted mapping: %v", err)
			}
			continue
		}
		applied++
		if i%3 == 0 {
			mv.Revert()
			if e.curCost != before {
				t.Fatalf("Revert did not restore cost: %v vs %v", e.curCost, before)
			}
			if err := sched.CheckMapping(app, arch, e.cur); err != nil {
				t.Fatalf("Revert corrupted mapping: %v", err)
			}
		}
	}
	if applied == 0 {
		t.Fatal("no move ever applied")
	}
}

func TestContextSpawnOnOverflow(t *testing.T) {
	// Tiny device: two tasks cannot share a context.
	app := &model.App{
		Name: "two",
		Tasks: []model.Task{
			{Name: "a", SW: model.FromMillis(1), HW: []model.Impl{{CLBs: 90, Time: model.FromMicros(100)}}},
			{Name: "b", SW: model.FromMillis(1), HW: []model.Impl{{CLBs: 90, Time: model.FromMicros(100)}}},
		},
		Flows: []model.Flow{{From: 0, To: 1, Qty: 100}},
	}
	arch := &model.Arch{
		Processors: []model.Processor{{Name: "p"}},
		RCs:        []model.RC{{Name: "rc", NCLB: 100, TR: model.FromMicros(10)}},
		Bus:        model.Bus{Rate: 1_000_000},
	}
	e := mustExplorer(t, app, arch, 1)
	// Force: a in hardware context 0, b in software.
	m, _ := sched.NewMapping(app, arch)
	m.SWOrders[0] = []int{1}
	m.Assign[0] = sched.Placement{Kind: model.KindRC, Res: 0, Ctx: 0}
	m.Contexts[0] = []sched.Context{{Tasks: []int{0}}}
	if err := e.reset(m); err != nil {
		t.Fatal(err)
	}
	// Move b into a's context: must spawn a second context.
	if !e.doReassignTo(1, model.KindRC, 0, 0, -1) {
		t.Fatal("reassign failed")
	}
	if err := sched.CheckMapping(app, arch, e.cur); err != nil {
		t.Fatalf("after spawn: %v", err)
	}
	if got := e.cur.NumContexts(0); got != 2 {
		t.Fatalf("contexts = %d, want 2 (spawned)", got)
	}
	if e.cur.Assign[1].Ctx != 1 {
		t.Fatalf("b landed in context %d, want the spawned context 1", e.cur.Assign[1].Ctx)
	}
}

func TestEmptiedContextIsDeleted(t *testing.T) {
	app, arch := motionSetup(2000)
	e := mustExplorer(t, app, arch, 2)
	// Build: tasks 0 and 1 in their own contexts, rest in software.
	m, _ := sched.NewMapping(app, arch)
	remove := func(t int) {
		for i, x := range m.SWOrders[0] {
			if x == t {
				m.SWOrders[0] = append(m.SWOrders[0][:i], m.SWOrders[0][i+1:]...)
				return
			}
		}
	}
	remove(0)
	remove(1)
	m.Assign[0] = sched.Placement{Kind: model.KindRC, Res: 0, Ctx: 0}
	m.Assign[1] = sched.Placement{Kind: model.KindRC, Res: 0, Ctx: 1}
	m.Contexts[0] = []sched.Context{{Tasks: []int{0}}, {Tasks: []int{1}}}
	if err := e.reset(m); err != nil {
		t.Fatal(err)
	}
	// Move task 0 (sole occupant of context 0) to software before task 2.
	if !e.doReassignTo(0, model.KindProcessor, 0, -1, 2) {
		t.Fatal("reassign failed")
	}
	if err := sched.CheckMapping(app, arch, e.cur); err != nil {
		t.Fatalf("after delete: %v", err)
	}
	if got := len(e.cur.Contexts[0]); got != 1 {
		t.Fatalf("contexts = %d, want 1 (emptied context deleted)", got)
	}
	if e.cur.Assign[1].Ctx != 0 {
		t.Fatalf("task 1 context not renumbered: %d", e.cur.Assign[1].Ctx)
	}
}

func TestCtxSwapRenumbers(t *testing.T) {
	app, arch := motionSetup(2000)
	e := mustExplorer(t, app, arch, 3)
	m, _ := sched.NewMapping(app, arch)
	remove := func(t int) {
		for i, x := range m.SWOrders[0] {
			if x == t {
				m.SWOrders[0] = append(m.SWOrders[0][:i], m.SWOrders[0][i+1:]...)
				return
			}
		}
	}
	// Two independent tasks (13 is a branch-A sink, 27 the tail sink).
	remove(13)
	remove(27)
	m.Assign[13] = sched.Placement{Kind: model.KindRC, Res: 0, Ctx: 0}
	m.Assign[27] = sched.Placement{Kind: model.KindRC, Res: 0, Ctx: 1}
	m.Contexts[0] = []sched.Context{{Tasks: []int{13}}, {Tasks: []int{27}}}
	if err := e.reset(m); err != nil {
		t.Fatal(err)
	}
	if !e.doCtxSwap(0, 0) {
		t.Fatal("swap failed")
	}
	if err := sched.CheckMapping(app, arch, e.cur); err != nil {
		t.Fatalf("after swap: %v", err)
	}
	if e.cur.Assign[27].Ctx != 0 || e.cur.Assign[13].Ctx != 1 {
		t.Fatal("context back-references not swapped")
	}
}

func TestArchitectureExploration(t *testing.T) {
	app, _ := motionSetup(2000)
	// Template with extra resources: exploration may or may not use them.
	arch := &model.Arch{
		Name: "template",
		Processors: []model.Processor{
			{Name: "arm0", Cost: 10},
			{Name: "arm1", Cost: 10},
		},
		RCs: []model.RC{
			{Name: "fpga0", NCLB: 2000, TR: model.FromMicros(22.5), Cost: 25},
			{Name: "fpga1", NCLB: 1000, TR: model.FromMicros(22.5), Cost: 15},
		},
		ASICs: []model.ASIC{{Name: "asic0", Cost: 40}},
		Bus:   model.Bus{Rate: 80_000_000, Contention: true},
	}
	cfg := DefaultConfig()
	cfg.MaxIters = 2500
	cfg.Warmup = 400
	cfg.Seed = 11
	cfg.ExploreArch = true
	cfg.Deadline = model.Time(apps.MotionDeadline)
	cfg.Paranoid = true
	res, err := Explore(app, arch, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sched.CheckMapping(app, arch, res.Best); err != nil {
		t.Fatalf("best mapping invalid: %v", err)
	}
	// Architecture-exploration cost must be bounded by the full template
	// cost plus any penalty, and by at least the cheapest processor.
	if res.Stats.BestCost < 10 {
		t.Fatalf("cost %v below cheapest-resource bound", res.Stats.BestCost)
	}
}

func TestCostOfArchMode(t *testing.T) {
	app, arch := motionSetup(2000)
	cfg := DefaultConfig()
	cfg.ExploreArch = true
	cfg.Deadline = model.FromMillis(1) // absurdly tight: must be violated
	cfg.PenaltyWeight = 100
	e, err := New(app, arch, cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := e.costOf(e.curRes)
	if c <= objective.UsedResourceCostOf(arch, e.cur) {
		t.Fatalf("cost %v does not include deadline penalty", c)
	}
	// Without violation the cost is exactly the resource cost.
	cfg.Deadline = model.FromMillis(10_000)
	e2, _ := New(app, arch, cfg)
	if got, want := e2.costOf(e2.curRes), objective.UsedResourceCostOf(arch, e2.cur); got != want {
		t.Fatalf("unconstrained cost %v != resource cost %v", got, want)
	}
}

func TestMoveWeightsVector(t *testing.T) {
	w := moveWeights(false)
	if w[MoveRemoveRes] != 0 || w[MoveCreateRes] != 0 {
		t.Fatal("fixed-architecture mode must zero m3/m4 (paper: P(0)=0)")
	}
	w = moveWeights(true)
	if w[MoveRemoveRes] == 0 || w[MoveCreateRes] == 0 {
		t.Fatal("architecture exploration must enable m3/m4")
	}
}

// TestDefaultCostBitIdenticalToLegacy is the acceptance pin of the
// objective-layer refactor: on a seeded run with default weights, every
// point of the cost stream — and therefore every accept/reject decision —
// must equal the historical closed-form cost (makespan + context
// tie-break) recomputed independently from the trace.
func TestDefaultCostBitIdenticalToLegacy(t *testing.T) {
	app, arch := motionSetup(2000)
	cfg := DefaultConfig()
	cfg.MaxIters = 2000
	cfg.Warmup = 400
	cfg.Seed = 13
	cfg.Deadline = model.FromMillis(40) // reported only; must not leak into the cost
	checked := 0
	cfg.Trace = func(p TracePoint) {
		legacy := p.Makespan.Millis() + objective.CtxTieBreak*float64(p.Contexts)
		if p.Cost != legacy {
			t.Fatalf("iter %d: cost %v != legacy closed form %v", p.Iter, p.Cost, legacy)
		}
		checked++
	}
	res, err := Explore(app, arch, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if checked != cfg.MaxIters {
		t.Fatalf("trace checked %d points, want %d", checked, cfg.MaxIters)
	}
	if want := res.BestEval.Makespan.Millis() + objective.CtxTieBreak*float64(res.BestEval.Contexts); res.Stats.BestCost > want {
		t.Fatalf("best cost %v above its own evaluation's legacy cost %v", res.Stats.BestCost, want)
	}
}

// TestSteppedRunEquivalence: driving the explorer through Start/Step in
// small chunks is bit-identical to the one-shot Run, serial and batched.
// A batched Step ends only at the end of a round, whatever its chunk.
func TestSteppedRunEquivalence(t *testing.T) {
	app, arch := motionSetup(2000)
	for _, batch := range []int{0, 8} {
		mk := func() Config {
			cfg := DefaultConfig()
			cfg.MaxIters = 1200
			cfg.Warmup = 300
			cfg.QuenchIters = 400
			cfg.Seed = 77
			cfg.Batch = batch
			return cfg
		}
		want, err := Explore(app, arch, mk())
		if err != nil {
			t.Fatal(err)
		}
		for _, chunk := range []int{1, 13, 97} {
			e, err := New(app, arch, mk())
			if err != nil {
				t.Fatal(err)
			}
			e.Start()
			for {
				more, err := e.Step(chunk)
				if err != nil {
					t.Fatal(err)
				}
				if !more {
					break
				}
				if e.next != len(e.round) {
					t.Fatalf("batch %d, chunk %d: a Step returned with candidate %d of a round of %d in flight",
						batch, chunk, e.next, len(e.round))
				}
			}
			got := e.Finish()
			if got.BestEval != want.BestEval || got.Stats != want.Stats {
				t.Fatalf("batch %d, chunk %d diverged: %+v / %+v vs %+v / %+v",
					batch, chunk, got.BestEval, got.Stats, want.BestEval, want.Stats)
			}
		}
	}
}

// TestInRunFrontCollection: a single seeded exploration with FrontMetrics
// produces a valid multi-point area/makespan front (the acceptance
// criterion asks for >= 3 points).
func TestInRunFrontCollection(t *testing.T) {
	app, arch := motionSetup(2000)
	cfg := DefaultConfig()
	cfg.Seed = 1
	cfg.FrontMetrics = []objective.Metric{objective.HWArea, objective.Makespan}
	res, err := Explore(app, arch, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Front == nil {
		t.Fatal("front enabled but nil in result")
	}
	pts := res.Front.Points()
	if len(pts) < 3 {
		t.Fatalf("front has %d points, want >= 3: %+v", len(pts), pts)
	}
	// Antichain in (area, makespan): strictly increasing area, strictly
	// decreasing makespan under the lexicographic point order.
	for i := 1; i < len(pts); i++ {
		if pts[i].V[0] <= pts[i-1].V[0] || pts[i].V[1] >= pts[i-1].V[1] {
			t.Fatalf("front not an antichain at %d: %v, %v", i, pts[i-1].V, pts[i].V)
		}
	}
	// The best solution's point must be on (or dominated by) the front:
	// no front point may be dominated by the best solution.
	bestArea := float64(objective.HWAreaOf(app, res.Best))
	bestMs := res.BestEval.Makespan.Millis()
	for _, p := range pts {
		if bestArea < p.V[0] && bestMs < p.V[1] {
			t.Fatalf("front point %v dominated by the best solution (%v, %v)", p.V, bestArea, bestMs)
		}
	}
}

// TestFrontDisabledByDefault: without FrontMetrics the result carries no
// archive (and the hot loop never pays for one).
func TestFrontDisabledByDefault(t *testing.T) {
	app, arch := motionSetup(2000)
	cfg := DefaultConfig()
	cfg.MaxIters = 200
	cfg.Warmup = 50
	cfg.QuenchIters = 0
	res, err := Explore(app, arch, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Front != nil {
		t.Fatal("front present without FrontMetrics")
	}
}

// TestSetSolutionWarmStart: installing a known mapping replaces the random
// initial solution and its cost is the shared objective's cost.
func TestSetSolutionWarmStart(t *testing.T) {
	app, arch := motionSetup(2000)
	cfg := DefaultConfig()
	cfg.Seed = 5
	e, err := New(app, arch, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m, err := sched.NewMapping(app, arch) // all-software
	if err != nil {
		t.Fatal(err)
	}
	if err := e.SetSolution(m); err != nil {
		t.Fatal(err)
	}
	_, res := e.Current()
	scal := objective.FixedArch()
	if got, want := e.Cost(), scal.CostOf(app, arch, m, res); got != want {
		t.Fatalf("warm-start cost %v != objective cost %v", got, want)
	}
}

// TestCustomObjectiveWeights: a non-default scalarizer flows into the
// annealing cost (here: pure area, which an all-software mapping zeroes).
func TestCustomObjectiveWeights(t *testing.T) {
	app, arch := motionSetup(2000)
	scal := objective.FixedArch()
	scal.Weights[objective.HWArea] = 1 // heavily price hardware area
	cfg := DefaultConfig()
	cfg.MaxIters = 1500
	cfg.Warmup = 300
	cfg.Seed = 3
	cfg.Objective = &scal
	res, err := Explore(app, arch, cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantCost := res.BestEval.Makespan.Millis() +
		objective.CtxTieBreak*float64(res.BestEval.Contexts) +
		float64(objective.HWAreaOf(app, res.Best))
	if res.Stats.BestCost != wantCost {
		t.Fatalf("weighted cost %v != recomputed %v", res.Stats.BestCost, wantCost)
	}
}
