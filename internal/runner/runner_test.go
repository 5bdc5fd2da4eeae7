package runner

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/objective"
	"repro/internal/pareto"
	"repro/internal/sched"
	"repro/internal/search"
)

func motionSetup(nclb int) (*model.App, *model.Arch) {
	cfg := apps.DefaultMotionConfig()
	return apps.MotionDetection(cfg), apps.MotionArch(nclb, cfg)
}

func fastSA(t *testing.T, app *model.App, arch *model.Arch) RunFunc {
	t.Helper()
	cfg := search.DefaultConfig()
	cfg.SA.MaxIters = 600
	cfg.SA.Warmup = 150
	cfg.SA.QuenchIters = 200
	cfg.SA.Deadline = apps.MotionDeadline
	f, err := search.NewFactory("sa", app, arch, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return Strategy(f)
}

// runBatch executes a batch and returns the aggregate plus the stream of
// per-run results in delivery order.
func runBatch(t *testing.T, app *model.App, fn RunFunc, runs, workers int, base int64) (*Aggregate, []RunResult) {
	t.Helper()
	var stream []RunResult
	agg, err := Run(context.Background(), app, Options{
		Runs:     runs,
		Workers:  workers,
		BaseSeed: base,
		OnResult: func(r RunResult) { stream = append(stream, r) },
	}, fn)
	if err != nil {
		t.Fatal(err)
	}
	return agg, stream
}

// TestDeterminism is the engine's core contract: the same base seed must
// produce byte-identical per-run results and aggregates for any worker
// count.
func TestDeterminism(t *testing.T) {
	app, arch := motionSetup(2000)
	fn := fastSA(t, app, arch)
	const runs = 6

	agg1, stream1 := runBatch(t, app, fn, runs, 1, 42)
	aggN, streamN := runBatch(t, app, fn, runs, runtime.NumCPU(), 42)

	if len(stream1) != runs || len(streamN) != runs {
		t.Fatalf("stream lengths %d/%d, want %d", len(stream1), len(streamN), runs)
	}
	for i := range stream1 {
		a, b := stream1[i], streamN[i]
		if a.Run != i || b.Run != i {
			t.Fatalf("stream out of order at %d: runs %d/%d", i, a.Run, b.Run)
		}
		if a.Seed != b.Seed || a.Outcome.Eval != b.Outcome.Eval {
			t.Fatalf("run %d diverges across worker counts: %+v vs %+v", i, a.Outcome.Eval, b.Outcome.Eval)
		}
	}
	if agg1.MakespanMS.Mean() != aggN.MakespanMS.Mean() ||
		agg1.MakespanMS.Min() != aggN.MakespanMS.Min() ||
		agg1.MakespanMS.Quantile(0.95) != aggN.MakespanMS.Quantile(0.95) {
		t.Fatalf("aggregate statistics diverge: %v vs %v", agg1.MakespanMS, aggN.MakespanMS)
	}
	if agg1.BestRun != aggN.BestRun || agg1.BestEval != aggN.BestEval {
		t.Fatalf("best-solution selection diverges: run %d (%v) vs run %d (%v)",
			agg1.BestRun, agg1.BestEval.Makespan, aggN.BestRun, aggN.BestEval.Makespan)
	}
	p1, pN := agg1.Archive.Points(), aggN.Archive.Points()
	if len(p1) != len(pN) {
		t.Fatalf("archive sizes diverge: %d vs %d", len(p1), len(pN))
	}
	for i := range p1 {
		if p1[i] != pN[i] {
			t.Fatalf("archive point %d diverges: %+v vs %+v", i, p1[i], pN[i])
		}
	}
	if agg1.Completed != runs || agg1.DeadlineMet != aggN.DeadlineMet {
		t.Fatalf("completed %d, deadline met %d vs %d", agg1.Completed, agg1.DeadlineMet, aggN.DeadlineMet)
	}
	// Per-run purity: run i of a batch starting at base 42 equals run 0 of
	// a batch starting at base 42+i.
	shifted, _ := runBatch(t, app, fn, 1, 1, 44)
	if shifted.BestEval != stream1[2].Outcome.Eval {
		t.Fatalf("run result is not a pure function of the seed: %+v vs %+v",
			shifted.BestEval, stream1[2].Outcome.Eval)
	}
}

// TestCancellation cancels mid-batch and checks that the partial aggregate
// of completed runs comes back and that no goroutines leak.
func TestCancellation(t *testing.T) {
	app, arch := motionSetup(2000)
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Int32
	slow := func(runCtx context.Context, run int, seed int64) (*Outcome, error) {
		// First run completes instantly; the rest block until cancelled.
		if started.Add(1) > 1 {
			<-runCtx.Done()
			return nil, runCtx.Err()
		}
		cfg := core.DefaultConfig()
		cfg.Seed = seed
		cfg.MaxIters = 300
		cfg.Warmup = 100
		cfg.QuenchIters = 0
		res, err := core.Explore(app, arch, cfg)
		if err != nil {
			return nil, err
		}
		cancel()
		return &Outcome{Best: res.Best, Eval: res.BestEval, MetDeadline: true}, nil
	}

	agg, err := Run(ctx, app, Options{Runs: 16, Workers: 4, BaseSeed: 7}, slow)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if agg == nil {
		t.Fatal("cancelled batch must still return the partial aggregate")
	}
	if agg.Completed < 1 || agg.Completed >= 16 {
		t.Fatalf("completed %d runs, want partial (>=1, <16)", agg.Completed)
	}
	if agg.Requested != 16 {
		t.Fatalf("requested %d, want 16", agg.Requested)
	}
	if agg.Best == nil {
		t.Fatal("partial aggregate lost the best solution")
	}

	// All pool goroutines must wind down.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("goroutine leak: %d before, %d after cancellation", before, n)
	}
}

// TestRunError checks that a failing run cancels the batch and surfaces the
// lowest-index error with the partial aggregate.
func TestRunError(t *testing.T) {
	boom := errors.New("boom")
	fn := func(ctx context.Context, run int, seed int64) (*Outcome, error) {
		if run == 3 {
			return nil, boom
		}
		return &Outcome{
			Best:        &sched.Mapping{},
			Eval:        sched.Result{Makespan: model.Time(seed)},
			MetDeadline: true,
		}, nil
	}
	agg, err := Run(context.Background(), nil, Options{Runs: 8, Workers: 2, BaseSeed: 100}, fn)
	if !errors.Is(err, boom) {
		t.Fatalf("want wrapped boom, got %v", err)
	}
	if agg == nil || agg.Completed == 0 {
		t.Fatalf("error batch must return the partial aggregate, got %+v", agg)
	}
}

// TestArchiveMerge drives pareto.Archive with a randomized split/merge and
// checks that merging per-shard archives equals the archive of all points —
// the property the runner relies on for any future sharded aggregation.
func TestArchiveMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		points := make([]model.Impl, 40)
		for i := range points {
			points[i] = model.Impl{
				CLBs: 10 + rng.Intn(30),
				Time: model.Time(1000 * (1 + rng.Intn(50))),
			}
		}
		var whole pareto.Archive
		for i, p := range points {
			whole.Add(p, i)
		}
		var left, right pareto.Archive
		cut := rng.Intn(len(points))
		for i, p := range points[:cut] {
			left.Add(p, i)
		}
		for i, p := range points[cut:] {
			right.Add(p, cut+i)
		}
		left.Merge(&right)

		got, want := left.Points(), whole.Points()
		if len(got) != len(want) {
			t.Fatalf("trial %d: merged frontier has %d points, whole has %d", trial, len(got), len(want))
		}
		for i := range got {
			if got[i].Impl != want[i].Impl {
				t.Fatalf("trial %d: frontier point %d: merged %+v vs whole %+v", trial, i, got[i], want[i])
			}
		}
		// The frontier must be an antichain: strictly increasing area,
		// strictly decreasing time.
		for i := 1; i < len(got); i++ {
			if got[i].Impl.CLBs <= got[i-1].Impl.CLBs || got[i].Impl.Time >= got[i-1].Impl.Time {
				t.Fatalf("trial %d: not an antichain at %d: %+v, %+v", trial, i, got[i-1], got[i])
			}
		}
	}
}

// TestHWArea pins the archive's area coordinate — now served by the shared
// objective layer — on a hand-built mapping.
func TestHWArea(t *testing.T) {
	app, arch := motionSetup(2000)
	m, err := sched.NewMapping(app, arch)
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for t2, pl := range m.Assign {
		if pl.Kind != model.KindProcessor {
			want += app.Tasks[t2].HW[m.Impl[t2]].CLBs
		}
	}
	if got := objective.HWAreaOf(app, m); got != want {
		t.Fatalf("HWAreaOf = %d, want %d", got, want)
	}
}

// TestGABatch smoke-tests the GA strategy through the engine.
func TestGABatch(t *testing.T) {
	app, arch := motionSetup(2000)
	cfg := search.DefaultConfig()
	cfg.GA.Population = 24
	cfg.GA.Generations = 6
	cfg.GA.Stall = 3
	cfg.SA.Deadline = apps.MotionDeadline
	f, err := search.NewFactory("ga", app, arch, cfg)
	if err != nil {
		t.Fatal(err)
	}
	agg, err := Run(context.Background(), app, Options{Runs: 3, Workers: 3, BaseSeed: 1}, Strategy(f))
	if err != nil {
		t.Fatal(err)
	}
	if agg.Completed != 3 || agg.Best == nil {
		t.Fatalf("GA batch incomplete: %+v", agg)
	}
	if agg.BestEval.Makespan <= 0 || agg.BestEval.Makespan >= app.TotalSW() {
		t.Fatalf("implausible GA makespan %v", agg.BestEval.Makespan)
	}
}

func TestOptionDefaults(t *testing.T) {
	fn := func(ctx context.Context, run int, seed int64) (*Outcome, error) {
		return &Outcome{Best: &sched.Mapping{}, Eval: sched.Result{Makespan: 1}, MetDeadline: true}, nil
	}
	agg, err := Run(context.Background(), nil, Options{}, fn)
	if err != nil {
		t.Fatal(err)
	}
	if agg.Requested != 1 || agg.Completed != 1 {
		t.Fatalf("zero options should mean one run: %+v", agg)
	}
	if _, err := Run(context.Background(), nil, Options{}, nil); err == nil {
		t.Fatal("nil RunFunc must error")
	}
}

// Example-style sanity check: keep the doc comment's claim about the seed
// stream honest.
func TestSeedStream(t *testing.T) {
	var seeds []int64
	fn := func(ctx context.Context, run int, seed int64) (*Outcome, error) {
		return &Outcome{
			Best: &sched.Mapping{},
			Eval: sched.Result{Makespan: model.Time(seed)},
		}, nil
	}
	agg, err := Run(context.Background(), nil, Options{
		Runs: 5, Workers: 2, BaseSeed: 1000,
		OnResult: func(r RunResult) { seeds = append(seeds, r.Seed) },
	}, fn)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range seeds {
		if s != 1000+int64(i) {
			t.Fatalf("seed stream broken: %v", seeds)
		}
	}
	if agg.MakespanMS.N() != 5 {
		t.Fatalf("aggregated %d runs, want 5", agg.MakespanMS.N())
	}
	if fmt.Sprintf("%.0f", agg.MakespanMS.Mean()) == "" {
		t.Fatal("unreachable")
	}
}
