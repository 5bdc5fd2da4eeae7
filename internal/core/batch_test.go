package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/anneal"
	"repro/internal/apps"
	"repro/internal/model"
	"repro/internal/objective"
	"repro/internal/pareto"
	"repro/internal/sched"
)

// runWithConfig is runWithMode without the mode override: one full Explore
// with a trace tap, for comparing whole trajectories across configurations.
func runWithConfig(t *testing.T, app *model.App, arch *model.Arch, cfg Config) (*Result, []equivTracePoint) {
	t.Helper()
	var trace []equivTracePoint
	cfg.Trace = func(p TracePoint) {
		trace = append(trace, equivTracePoint{
			cost:     p.Cost,
			makespan: p.Makespan,
			accepted: p.Accepted,
			moveKind: p.MoveKind,
		})
	}
	res, err := Explore(app, arch, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res, trace
}

func assertSameTrajectory(t *testing.T, name string, resA, resB *Result, traceA, traceB []equivTracePoint) {
	t.Helper()
	if len(traceA) != len(traceB) {
		t.Fatalf("%s: trace lengths differ: %d vs %d", name, len(traceA), len(traceB))
	}
	for i := range traceA {
		if traceA[i] != traceB[i] {
			t.Fatalf("%s: traces diverge at iteration %d:\n  a %+v\n  b %+v", name, i, traceA[i], traceB[i])
		}
	}
	if resA.BestEval != resB.BestEval {
		t.Fatalf("%s: best evaluations differ:\n  a %+v\n  b %+v", name, resA.BestEval, resB.BestEval)
	}
	if resA.Stats != resB.Stats {
		t.Fatalf("%s: run statistics differ:\n  a %+v\n  b %+v", name, resA.Stats, resB.Stats)
	}
	if resA.MoveStats != resB.MoveStats {
		t.Fatalf("%s: move statistics differ:\n  a %+v\n  b %+v", name, resA.MoveStats, resB.MoveStats)
	}
}

// TestBatchOneIsSerial is the bit-identity guard of the batch knob: widths
// 0 and 1 run the exact serial loop, so the whole trajectory — every
// per-iteration cost, makespan and accept decision — must be identical to
// the default configuration's, and no speculation telemetry may appear.
func TestBatchOneIsSerial(t *testing.T) {
	mcfg := apps.DefaultMotionConfig()
	app := apps.MotionDetection(mcfg)
	arch := apps.MotionArch(2000, mcfg)

	cfg := DefaultConfig()
	cfg.MaxIters = 1500
	cfg.Warmup = 300
	cfg.QuenchIters = 400

	resSerial, traceSerial := runWithConfig(t, app, arch, cfg)
	for _, width := range []int{0, 1} {
		c := cfg
		c.Batch = width
		res, trace := runWithConfig(t, app, arch, c)
		assertSameTrajectory(t, "batch<=1 vs serial", resSerial, res, traceSerial, trace)
		if res.Stats.Speculated != 0 || res.Stats.Discarded != 0 {
			t.Fatalf("batch=%d reported speculation telemetry: %+v", width, res.Stats)
		}
	}
}

// TestBatchDeterministicForSeed: a batched run is a pure function of
// (seed, batch width) — repeating it must reproduce every iteration.
func TestBatchDeterministicForSeed(t *testing.T) {
	mcfg := apps.DefaultMotionConfig()
	app := apps.MotionDetection(mcfg)
	arch := apps.MotionArch(2000, mcfg)

	cfg := DefaultConfig()
	cfg.MaxIters = 1200
	cfg.Warmup = 250
	cfg.QuenchIters = 300
	cfg.Batch = 8

	resA, traceA := runWithConfig(t, app, arch, cfg)
	resB, traceB := runWithConfig(t, app, arch, cfg)
	assertSameTrajectory(t, "batch rerun", resA, resB, traceA, traceB)
	if resA.Stats.Speculated == 0 {
		t.Fatal("batched run speculated nothing")
	}
	if resA.Stats.Accepted+resA.Stats.Rejected+resA.Stats.Discarded == 0 {
		t.Fatal("batched run consumed nothing")
	}
}

// TestBatchWorkerCountIndependence: a batched run is a pure function of
// (seed, batch width) — the trajectory, the statistics, and the in-run
// Pareto front must be bit-identical whatever number of processors the
// run's goroutines are scheduled on.
func TestBatchWorkerCountIndependence(t *testing.T) {
	mcfg := apps.DefaultMotionConfig()
	app := apps.MotionDetection(mcfg)
	arch := apps.MotionArch(2000, mcfg)

	cfg := DefaultConfig()
	cfg.MaxIters = 1000
	cfg.Warmup = 200
	cfg.QuenchIters = 300
	cfg.Batch = 6
	cfg.FrontMetrics = []objective.Metric{objective.HWArea, objective.Makespan}

	type outcome struct {
		res   *Result
		trace []equivTracePoint
	}
	var base *outcome
	for _, procs := range []int{1, 2, 4} {
		prev := runtime.GOMAXPROCS(procs)
		res, trace := runWithConfig(t, app, arch, cfg)
		runtime.GOMAXPROCS(prev)
		if base == nil {
			base = &outcome{res: res, trace: trace}
			continue
		}
		assertSameTrajectory(t, "processor-count independence", base.res, res, base.trace, trace)
		assertSameFront(t, base.res.Front.Points(), res.Front.Points())
	}
}

// assertSameFront requires two in-run archives to hold the same points,
// offer IDs included, in the same order.
func assertSameFront(t *testing.T, a, b []pareto.NPoint) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("front sizes differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].ID != b[i].ID || len(a[i].V) != len(b[i].V) {
			t.Fatalf("front point %d differs: %+v vs %+v", i, a[i], b[i])
		}
		for d := range a[i].V {
			if a[i].V[d] != b[i].V[d] {
				t.Fatalf("front point %d coord %d differs: %v vs %v", i, d, a[i].V[d], b[i].V[d])
			}
		}
	}
}

// eagerBatch is the reference batch scorer: it scores every drawn
// candidate up front with apply → evaluate → revert against the unchanged
// solution, then re-applies the accepted one. It shares the explorer's
// draws, so any difference from an in-place run is a scoring difference.
type eagerBatch struct {
	*Explorer
	ok   []bool
	cost []float64
}

func (b *eagerBatch) load(i int) {
	e, c := b.Explorer, &b.spec[i]
	e.mv.kind, e.mv.a, e.mv.b, e.mv.c, e.mv.d, e.mv.p = c.kind, c.a, c.b, c.c, c.d, c.p
}

func (b *eagerBatch) SpeculateBatch(rng *rand.Rand, k int) int {
	n := b.Explorer.SpeculateBatch(rng, k)
	b.ok, b.cost = b.ok[:0], b.cost[:0]
	for i := 0; i < n; i++ {
		ok, cost := false, 0.0
		if b.spec[i].kind >= 0 {
			b.load(i)
			b.speculating = true
			if b.mv.Apply() {
				ok, cost = true, b.curCost
				b.mv.Revert()
			}
			b.speculating = false
		}
		b.ok, b.cost = append(b.ok, ok), append(b.cost, cost)
	}
	return n
}

func (b *eagerBatch) Candidate(i int) (int, bool, float64) {
	return b.spec[i].kind, b.ok[i], b.cost[i]
}

func (b *eagerBatch) ConsumeCandidate(i int, accepted bool) bool {
	if !accepted {
		return true
	}
	b.load(i)
	return b.mv.Apply()
}

// batchRun is one annealing phase over a batch problem, with Start's
// selector feedback and a trace tap.
type batchRun struct {
	st    anneal.Stats
	best  sched.Result
	trace []equivTracePoint
	front []pareto.NPoint
}

func runBatchProblem(t *testing.T, app *model.App, arch *model.Arch, cfg Config, eager bool) batchRun {
	t.Helper()
	e, err := New(app, arch, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var p anneal.Problem = e
	if eager {
		p = &eagerBatch{Explorer: e}
	}
	var out batchRun
	opt := anneal.Options{Schedule: anneal.NewLam(cfg.Quality, cfg.Warmup)}
	opt.MaxIters, opt.Seed, opt.Batch = cfg.MaxIters, cfg.Seed, cfg.Batch
	opt.Trace = func(o anneal.Observation) {
		if o.MoveKind >= 0 {
			e.selector.Observe(o.MoveKind, o.Accepted)
		}
		out.trace = append(out.trace, equivTracePoint{cost: o.Cost, makespan: e.curRes.Makespan, accepted: o.Accepted, moveKind: o.MoveKind})
	}
	out.st = anneal.Run(p, opt)
	out.best = e.bestRes
	out.front = e.front.Points()
	return out
}

// TestLazyScoringMatchesEager is the in-place kernel's oracle: scoring a
// round lazily — each candidate applied in place only when the consumer
// reaches it, rejected ones reverted, the accepted one kept — must make
// every decision an eager scorer makes, on both evaluation paths, with
// every move kind enabled, and leave the same front.
func TestLazyScoringMatchesEager(t *testing.T) {
	mcfg := apps.DefaultMotionConfig()
	rcfg := apps.DefaultRandomConfig()
	rcfg.Tasks = 30
	layered, err := apps.Layered(rand.New(rand.NewSource(9)), rcfg)
	if err != nil {
		t.Fatal(err)
	}
	base := DefaultConfig()
	base.MaxIters = 1000
	base.Warmup = 200
	base.FrontMetrics = []objective.Metric{objective.HWArea, objective.Makespan}
	wide := base
	wide.Seed = 23
	wide.ExploreArch = true
	wide.EnableCtxSplit = true
	wide.Deadline = model.FromMillis(20)
	cases := []struct {
		name string
		app  *model.App
		arch *model.Arch
		cfg  Config
	}{
		{"motion/2000", apps.MotionDetection(mcfg), apps.MotionArch(2000, mcfg), base},
		{"layered30/wide", layered, wideArch(true), wide},
	}
	for _, c := range cases {
		for mode, path := range map[EvalMode]string{EvalFull: "full", EvalIncremental: "incremental"} {
			for _, width := range []int{2, 8, 64} {
				cfg := c.cfg
				cfg.EvalMode, cfg.Batch = mode, width
				lazy := runBatchProblem(t, c.app, c.arch, cfg, false)
				eager := runBatchProblem(t, c.app, c.arch, cfg, true)
				name := fmt.Sprintf("%s/%s/batch%d", c.name, path, width)
				if len(lazy.trace) != len(eager.trace) {
					t.Fatalf("%s: trace lengths differ: %d vs %d", name, len(lazy.trace), len(eager.trace))
				}
				for i := range lazy.trace {
					if lazy.trace[i] != eager.trace[i] {
						t.Fatalf("%s: traces diverge at iteration %d:\n  lazy  %+v\n  eager %+v", name, i, lazy.trace[i], eager.trace[i])
					}
				}
				if lazy.st != eager.st || lazy.best != eager.best {
					t.Fatalf("%s: results differ:\n  lazy  %+v %+v\n  eager %+v %+v", name, lazy.st, lazy.best, eager.st, eager.best)
				}
				if lazy.st.Discarded == 0 {
					t.Fatalf("%s: no candidate was ever discarded: %+v", name, lazy.st)
				}
				assertSameFront(t, lazy.front, eager.front)
			}
		}
	}
}

// TestBatchEvalPathEquivalence replays batched runs through both
// evaluation paths: speculation relies on the journal's rollback
// bit-exactness, so the full-rebuild and incremental paths must still
// agree on every iteration when candidates are scored speculatively.
func TestBatchEvalPathEquivalence(t *testing.T) {
	mcfg := apps.DefaultMotionConfig()
	motion := apps.MotionDetection(mcfg)

	cfg := DefaultConfig()
	cfg.Seed = 5
	cfg.MaxIters = 1200
	cfg.Warmup = 250
	cfg.QuenchIters = 300
	cfg.Batch = 6
	assertEquivalent(t, "motion/2000/batch6", motion, apps.MotionArch(2000, mcfg), cfg)

	// Wide template with every move kind (architecture exploration,
	// context splits).
	rcfg := apps.DefaultRandomConfig()
	rcfg.Tasks = 30
	app, err := apps.Layered(rand.New(rand.NewSource(3)), rcfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg = DefaultConfig()
	cfg.Seed = 17
	cfg.MaxIters = 1000
	cfg.Warmup = 200
	cfg.QuenchIters = 300
	cfg.ExploreArch = true
	cfg.EnableCtxSplit = true
	cfg.Deadline = model.FromMillis(20)
	cfg.Batch = 4
	assertEquivalent(t, "layered30/wide/batch4", app, wideArch(true), cfg)
}

// TestMoveStatsCounters checks the per-kind telemetry invariants on both
// serial and batched runs: acceptances tally to the annealer's Accepted
// count, no kind accepts more than it proposed, and proposals cover the
// whole run.
func TestMoveStatsCounters(t *testing.T) {
	mcfg := apps.DefaultMotionConfig()
	app := apps.MotionDetection(mcfg)
	arch := apps.MotionArch(2000, mcfg)

	for _, batch := range []int{0, 8} {
		cfg := DefaultConfig()
		cfg.MaxIters = 1200
		cfg.Warmup = 250
		cfg.QuenchIters = 400
		cfg.Batch = batch
		res, err := Explore(app, arch, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var proposed, accepted int64
		for k := 0; k < NumMoveKinds; k++ {
			p, a := res.MoveStats.Proposed[k], res.MoveStats.Accepted[k]
			if a > p {
				t.Fatalf("batch=%d: kind %s accepted %d > proposed %d", batch, MoveKindName(k), a, p)
			}
			proposed += p
			accepted += a
		}
		if proposed == 0 {
			t.Fatalf("batch=%d: no proposals recorded", batch)
		}
		if accepted != int64(res.Stats.Accepted) {
			t.Fatalf("batch=%d: per-kind acceptances %d != Stats.Accepted %d", batch, accepted, res.Stats.Accepted)
		}
	}
}
