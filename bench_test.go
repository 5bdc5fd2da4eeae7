// Package repro_test is the benchmark harness of the reproduction: one
// benchmark per published figure/result (see DESIGN.md §5) plus ablation
// micro-benchmarks for the design choices the implementation makes
// (incremental vs full evaluation, closure vs DFS cycle checks, adaptive
// vs fixed schedules and move selection).
//
// The figure-level benchmarks run a reduced number of seeds per iteration
// so `go test -bench=.` stays fast; the cmd/ tools run the full published
// protocols.
package repro_test

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/apps"
	"repro/internal/combi"
	"repro/internal/core"
	"repro/internal/ga"
	"repro/internal/graph"
	"repro/internal/model"
	"repro/internal/runner"
	"repro/internal/sched"
	"repro/internal/search"
)

func motionSetup(nclb int) (*model.App, *model.Arch) {
	cfg := apps.DefaultMotionConfig()
	return apps.MotionDetection(cfg), apps.MotionArch(nclb, cfg)
}

// ---------- E1: Figure 2 — one typical annealing run ----------

func BenchmarkFig2TypicalRun(b *testing.B) {
	app, arch := motionSetup(2000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg := core.DefaultConfig()
		cfg.Seed = int64(i)
		cfg.Deadline = apps.MotionDeadline
		res, err := core.Explore(app, arch, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if res.BestEval.Makespan <= 0 {
			b.Fatal("empty result")
		}
	}
}

// ---------- E2: Figure 3 — the device-size sweep (reduced) ----------

func BenchmarkFig3DeviceSweep(b *testing.B) {
	app, _ := motionSetup(2000)
	sizes := []int{200, 800, 2000, 10000}
	for i := 0; i < b.N; i++ {
		for _, nclb := range sizes {
			arch := apps.MotionArch(nclb, apps.DefaultMotionConfig())
			cfg := core.DefaultConfig()
			cfg.Seed = int64(i)
			cfg.MaxIters = 2000
			cfg.Warmup = 400
			cfg.QuenchIters = 1000
			cfg.EnableCtxSplit = false // paper mode
			if _, err := core.Explore(app, arch, cfg); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// ---------- E3: SA vs GA comparison ----------

func BenchmarkSA(b *testing.B) {
	app, arch := motionSetup(2000)
	for i := 0; i < b.N; i++ {
		cfg := core.DefaultConfig()
		cfg.Seed = int64(i)
		if _, err := core.Explore(app, arch, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGA(b *testing.B) {
	app, arch := motionSetup(2000)
	for i := 0; i < b.N; i++ {
		cfg := ga.DefaultConfig()
		cfg.Population = 300 // the published population
		cfg.Generations = 40 // bounded for benchmarking
		cfg.Stall = 15
		cfg.Seed = int64(i)
		if _, err := ga.Explore(app, arch, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------- E4: solution-space counting ----------

func BenchmarkSolutionSpaceCount(b *testing.B) {
	for i := 0; i < b.N; i++ {
		n := combi.ComputePaperNumbers()
		if n.Orders.Int64() != 348840 {
			b.Fatal("count mismatch")
		}
	}
}

// ---------- evaluator micro-benchmarks ----------

func BenchmarkEvaluateMapping(b *testing.B) {
	app, arch := motionSetup(2000)
	rng := rand.New(rand.NewSource(1))
	m, err := sched.RandomMapping(app, arch, rng)
	if err != nil {
		b.Fatal(err)
	}
	e := sched.NewEvaluator(app, arch)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Evaluate(m); err != nil {
			b.Fatal(err)
		}
	}
}

// Ablation: incremental longest-path maintenance vs full re-evaluation on a
// large random DAG under repeated local edits (the Woodbury-substitute of
// DESIGN.md §3).
func benchLargeDAG(n int, seed int64) (*graph.DAG, []int64) {
	r := rand.New(rand.NewSource(seed))
	g := graph.New(n)
	dur := make([]int64, n)
	for i := range dur {
		dur[i] = int64(r.Intn(1000))
	}
	for u := 0; u < n; u++ {
		for k := 0; k < 4; k++ {
			v := u + 1 + r.Intn(n-u)
			if v < n {
				g.AddEdge(u, v, int64(r.Intn(100))) //nolint:errcheck
			}
		}
	}
	return g, dur
}

func BenchmarkEvalIncremental(b *testing.B) {
	g, dur := benchLargeDAG(2000, 7)
	e, err := graph.NewEvaluator(g, append([]int64(nil), dur...))
	if err != nil {
		b.Fatal(err)
	}
	e.Flush()
	r := rand.New(rand.NewSource(8))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := r.Intn(2000)
		e.SetDur(v, int64(r.Intn(1000)))
		e.Flush()
	}
}

func BenchmarkEvalFull(b *testing.B) {
	g, dur := benchLargeDAG(2000, 7)
	r := rand.New(rand.NewSource(8))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dur[r.Intn(2000)] = int64(r.Intn(1000))
		if _, _, err := graph.Longest(g, dur); err != nil {
			b.Fatal(err)
		}
	}
}

// Ablation: O(1) closure cycle pre-check vs DFS reachability.
func BenchmarkCycleCheckClosure(b *testing.B) {
	g, _ := benchLargeDAG(1000, 9)
	c, err := graph.NewClosure(g)
	if err != nil {
		b.Fatal(err)
	}
	r := rand.New(rand.NewSource(10))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u, v := r.Intn(1000), r.Intn(1000)
		_ = c.WouldCycle(u, v)
	}
}

func BenchmarkCycleCheckDFS(b *testing.B) {
	g, _ := benchLargeDAG(1000, 9)
	r := rand.New(rand.NewSource(10))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u, v := r.Intn(1000), r.Intn(1000)
		_ = u == v || g.Reaches(v, u)
	}
}

// Ablation: the two evaluation paths of the annealing hot loop (full
// search-graph rebuild vs delta-based patching) on a small and a large
// instance. The full rebuild wins on small graphs, where a move's cone
// covers most of the graph anyway; the incremental path wins once the
// graph outgrows the cone. EvalAuto (the default) picks by instance size.
func benchSAEvalMode(b *testing.B, tasks int, mode core.EvalMode) {
	b.Helper()
	var (
		app  *model.App
		arch *model.Arch
	)
	if tasks == 0 {
		app, arch = motionSetup(2000)
	} else {
		rcfg := apps.DefaultRandomConfig()
		rcfg.Tasks = tasks
		rcfg.Layers = tasks / 8
		var err error
		if app, err = apps.Layered(rand.New(rand.NewSource(3)), rcfg); err != nil {
			b.Fatal(err)
		}
		arch = apps.MotionArch(4000, apps.DefaultMotionConfig())
	}
	for i := 0; i < b.N; i++ {
		cfg := core.DefaultConfig()
		cfg.Seed = int64(i)
		cfg.MaxIters = 3000
		cfg.Warmup = 600
		cfg.QuenchIters = 1000
		cfg.EvalMode = mode
		if _, err := core.Explore(app, arch, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSAMotionEvalFull(b *testing.B)        { benchSAEvalMode(b, 0, core.EvalFull) }
func BenchmarkSAMotionEvalIncremental(b *testing.B) { benchSAEvalMode(b, 0, core.EvalIncremental) }
func BenchmarkSALayered160EvalFull(b *testing.B)    { benchSAEvalMode(b, 160, core.EvalFull) }
func BenchmarkSALayered160EvalIncremental(b *testing.B) {
	benchSAEvalMode(b, 160, core.EvalIncremental)
}

// Scalability: exploration cost on larger random graphs.
func BenchmarkExploreLayered120(b *testing.B) {
	rcfg := apps.DefaultRandomConfig()
	rcfg.Tasks = 120
	rcfg.Layers = 15
	app, err := apps.Layered(rand.New(rand.NewSource(3)), rcfg)
	if err != nil {
		b.Fatal(err)
	}
	arch := apps.MotionArch(2000, apps.DefaultMotionConfig())
	for i := 0; i < b.N; i++ {
		cfg := core.DefaultConfig()
		cfg.Seed = int64(i)
		cfg.MaxIters = 2000
		cfg.Warmup = 400
		cfg.QuenchIters = 500
		if _, err := core.Explore(app, arch, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------- the unified strategy engine ----------

// BenchmarkPortfolio measures one full portfolio race (sa + list seeding +
// GA) on the motion-detection benchmark through the unified Strategy
// interface — the end-to-end cost of the strategy-engine layer.
func BenchmarkPortfolio(b *testing.B) {
	app, arch := motionSetup(2000)
	cfg := search.DefaultConfig()
	cfg.SA.MaxIters = 2000
	cfg.SA.Warmup = 400
	cfg.SA.QuenchIters = 500
	cfg.GA.Population = 60
	cfg.GA.Generations = 12
	cfg.GA.Stall = 6
	f, err := search.NewFactory("portfolio", app, arch, cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := search.Run(context.Background(), f, int64(i), 0)
		if err != nil {
			b.Fatal(err)
		}
		if out.Eval.Makespan <= 0 {
			b.Fatal("empty result")
		}
	}
}

// ---------- scratch-buffer pooling (runner) ----------

// TestRunnerScratchPoolingAllocs pins the evaluator-recycling contract of
// the multi-run drivers (runner/scratch.go): once the pool is warm, a
// batch run allocates strictly less than a fresh exploration of the same
// seed — the instance-sized SoA evaluator state is reused, not rebuilt —
// while producing a bit-identical outcome.
func TestRunnerScratchPoolingAllocs(t *testing.T) {
	app, arch := motionSetup(2000)
	cfg := search.DefaultConfig()
	cfg.SA.MaxIters = 600
	cfg.SA.Warmup = 150
	cfg.SA.QuenchIters = 150
	// The recycler only carries incremental-path state; force that path so
	// the assertion is meaningful on this small instance.
	cfg.SA.EvalMode = core.EvalIncremental

	// runner.Strategy installs its recycler on the factory it is given,
	// so the fresh runs need a factory of their own.
	newFactory := func() *search.Factory {
		f, err := search.NewFactory("sa", app, arch, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	pooled := runner.Strategy(newFactory())
	freshFactory := newFactory()
	fresh := func(seed int64) *search.Outcome {
		out, err := search.Run(context.Background(), freshFactory, seed, 0)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}

	// Bit-identity: the recycled run must reproduce the fresh run exactly.
	const seed = 42
	want := fresh(seed)
	out, err := pooled(context.Background(), 0, seed)
	if err != nil {
		t.Fatal(err)
	}
	if out.Eval != want.Eval {
		t.Fatalf("recycled run diverged: eval %+v, want %+v", out.Eval, want.Eval)
	}
	if !reflect.DeepEqual(out.Best, want.Best) {
		t.Fatal("recycled run found a different best mapping")
	}

	// Keep the sync.Pool from being drained by a GC cycle mid-measurement.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	pooledAllocs := testing.AllocsPerRun(3, func() {
		if _, err := pooled(context.Background(), 0, seed); err != nil {
			t.Fatal(err)
		}
	})
	freshAllocs := testing.AllocsPerRun(3, func() { fresh(seed) })
	if pooledAllocs >= freshAllocs {
		t.Fatalf("pooling saved nothing: %.0f allocs/run pooled, %.0f fresh", pooledAllocs, freshAllocs)
	}
}

// ---------- E5: the parallel multi-run engine ----------

// BenchmarkExploreMany measures the multi-run engine on one sweep point of
// the motion-detection device-size sweep (800 CLBs), comparing a serial
// batch (j=1) against all cores (j=NumCPU). The per-seed results are
// identical between the two; only the wall clock should differ.
func BenchmarkExploreMany(b *testing.B) {
	app, arch := motionSetup(800)
	cfg := search.DefaultConfig()
	cfg.SA.MaxIters = 1500
	cfg.SA.Warmup = 300
	cfg.SA.QuenchIters = 500
	cfg.SA.Deadline = apps.MotionDeadline
	f, err := search.NewFactory("sa", app, arch, cfg)
	if err != nil {
		b.Fatal(err)
	}
	fn := runner.Strategy(f)
	runsPer := 2 * runtime.NumCPU()
	for _, j := range []int{1, runtime.NumCPU()} {
		b.Run(fmt.Sprintf("j=%d", j), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				agg, err := runner.Run(context.Background(), app, runner.Options{
					Runs:     runsPer,
					Workers:  j,
					BaseSeed: int64(i * runsPer),
				}, fn)
				if err != nil {
					b.Fatal(err)
				}
				if agg.Completed != runsPer {
					b.Fatalf("completed %d/%d", agg.Completed, runsPer)
				}
			}
		})
	}
}
