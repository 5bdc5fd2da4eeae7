package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/objective"
	"repro/internal/pareto"
	"repro/internal/sched"
	"repro/internal/search"
	"repro/internal/stats"
)

// Options configures a batch of exploration runs.
type Options struct {
	// Runs is the number of independent runs (the paper uses 100 per sweep
	// point). Values below 1 are treated as 1.
	Runs int
	// Workers is the worker-pool size; values below 1 select
	// runtime.NumCPU().
	Workers int
	// BaseSeed is the origin of the per-run seed stream: run i uses seed
	// BaseSeed+i.
	BaseSeed int64
	// OnResult, when non-nil, receives every completed run strictly in run
	// order (0, 1, 2, ...) as results stream out of the merger. It is
	// called from the coordinating goroutine, never concurrently.
	OnResult func(RunResult)
}

// workers resolves the effective pool size.
func (o Options) workers() int {
	if o.Workers < 1 {
		return runtime.NumCPU()
	}
	return o.Workers
}

// runs resolves the effective run count.
func (o Options) runs() int {
	if o.Runs < 1 {
		return 1
	}
	return o.Runs
}

// Outcome is what one exploration run hands back to the engine.
type Outcome struct {
	// Best is the best mapping the run found. The runner takes ownership;
	// it must not alias state mutated by later runs.
	Best *sched.Mapping
	// Eval is its evaluation.
	Eval sched.Result
	// MetDeadline reports whether Best satisfies the run's deadline
	// (vacuously true without one).
	MetDeadline bool
	// Front, when non-nil, is the run's in-run N-dimensional Pareto
	// archive; the engine merges the fronts of all completed runs (in run
	// order) into Aggregate.Front, re-tagging points with the run index.
	Front *pareto.NArchive
	// Evaluations is the run's search.Stats.Evaluations (0 when the
	// RunFunc does not report telemetry): for annealing Accepted +
	// Rejected + Discarded, so a batched run also counts the candidates
	// it discarded without scoring them. The engine sums it into
	// Aggregate.Evaluations.
	Evaluations int
	// Cost is the best solution's scalarized objective cost. It is
	// meaningful only when HasCost is set: a zero Cost with HasCost true
	// is a genuine zero-cost solution, while HasCost false (a RunFunc that
	// does not report a cost) means "unreported" — the two used to be
	// conflated in a single float.
	Cost float64
	// HasCost reports whether Cost carries the run's scalarized objective
	// cost. When every outcome of a batch reports it, the engine selects
	// Aggregate.Best by lowest cost (objective-consistent even under
	// weighted or penalized scalarizations); otherwise it falls back to
	// lowest makespan.
	HasCost bool
	// FromCache reports that this outcome was served by the memoized
	// result cache instead of a fresh computation; the engine counts such
	// runs in Aggregate.CacheHits.
	FromCache bool
	// Speculated and Discarded carry the run's SA batch-evaluation
	// telemetry (zero for serial runs and non-SA strategies): candidates
	// drawn by speculative rounds, and the subset invalidated by an earlier
	// acceptance in their round.
	Speculated int
	Discarded  int
	// EarlyStopped reports that the driver's adaptive early-stop rule
	// truncated the run (see search.Config.EarlyStopEpsilon).
	EarlyStopped bool
	// MoveProposed and MoveAccepted count per-move-kind proposals and
	// consumed acceptances, keyed by core.MoveKindName; nil when the run
	// reports none (non-SA strategies). Only non-zero kinds appear.
	MoveProposed map[string]int64
	MoveAccepted map[string]int64
	// LaneStats is always zero: the lane batch kernel that filled it is
	// retired (see core.LaneStats), and the codec does not carry it.
	LaneStats core.LaneStats
	// Sched carries the scheduler/transfer telemetry (per-arm budget
	// slices, steps and rewards; warm-start donor key and incumbent cost);
	// nil for runs that neither scheduled members nor consumed a warm
	// start.
	Sched *search.SchedStats
}

// RunFunc executes one independent exploration run. It must derive all its
// randomness from seed (the engine guarantees seed = BaseSeed + run), honor
// ctx by returning early with its best-so-far, and be safe for concurrent
// invocation with other runs.
type RunFunc func(ctx context.Context, run int, seed int64) (*Outcome, error)

// RunResult is one completed run as seen by the streaming consumer.
type RunResult struct {
	Run     int
	Seed    int64
	Outcome Outcome
}

// Aggregate is the streamed cross-run summary of a batch.
type Aggregate struct {
	// Requested and Completed count the runs asked for and the runs that
	// finished (they differ only under cancellation or error).
	Requested int
	Completed int
	// MakespanMS, InitialReconfigMS, DynamicReconfigMS, CommMS aggregate
	// the per-run best evaluations, in milliseconds.
	MakespanMS        stats.Summary
	InitialReconfigMS stats.Summary
	DynamicReconfigMS stats.Summary
	CommMS            stats.Summary
	// Contexts aggregates the per-run best context counts.
	Contexts stats.Summary
	// DeadlineMet counts runs whose best solution met the deadline.
	DeadlineMet int
	// Evaluations sums the per-run Outcome.Evaluations counts (0 when the
	// RunFunc does not report them).
	Evaluations int
	// Speculated and Discarded sum the per-run batch-evaluation telemetry.
	Speculated int
	Discarded  int
	// EarlyStopped counts runs truncated by the adaptive early-stop rule.
	EarlyStopped int
	// LaneStats is always zero: the engine no longer sums the retired
	// lane kernel's telemetry (see core.LaneStats).
	LaneStats core.LaneStats
	// MoveProposed and MoveAccepted sum the per-run per-move-kind counters
	// (nil when no run reports any).
	MoveProposed map[string]int64
	MoveAccepted map[string]int64
	// SchedPolicy is the scheduling policy the runs reported ("rr",
	// "ucb"; a batch is homogeneous, so the last writer is every writer).
	// Empty when no run carried scheduler telemetry.
	SchedPolicy string
	// SchedSlices, SchedSteps and SchedReward sum the per-arm scheduler
	// telemetry across runs, keyed by member strategy name (nil when no
	// run reports any).
	SchedSlices map[string]int64
	SchedSteps  map[string]int64
	SchedReward map[string]float64
	// TransferRuns counts runs that consumed a warm-start donor;
	// TransferKey and TransferCost describe the first such run's donor
	// (the batch shares one factory, so all runs name the same donor).
	TransferRuns int
	TransferKey  string
	TransferCost float64
	// Best is the overall best mapping, with its evaluation and origin.
	// When the runs report scalarized costs (Outcome.HasCost — Strategy
	// and StrategyBudget runs do) the winner is the lowest-cost run, so
	// the selection agrees with whatever objective the batch optimizes;
	// runs that report no cost fall back to lowest makespan. Ties go to
	// the lowest run index either way.
	Best     *sched.Mapping
	BestEval sched.Result
	BestRun  int
	BestSeed int64
	// BestCost is Best's scalarized cost; meaningful only when
	// BestHasCost (see Outcome.Cost/HasCost for the convention).
	BestCost    float64
	BestHasCost bool
	// CacheHits counts completed runs served from the memoized result
	// cache (Outcome.FromCache).
	CacheHits int
	// Archive is the cross-run area/time Pareto frontier: each run's best
	// solution contributes one (occupied CLBs, makespan) point tagged with
	// its run index.
	Archive pareto.Archive
	// Front is the merged in-run N-dimensional Pareto front (nil when the
	// runs collect none): the union of every completed run's archive,
	// merged in run order with points re-tagged by run index — so it is
	// identical for any worker count.
	Front *pareto.NArchive
}

// add folds one completed run into the aggregate. Called in run order.
func (a *Aggregate) add(app *model.App, r RunResult) {
	a.Completed++
	ev := r.Outcome.Eval
	a.MakespanMS.Add(ev.Makespan.Millis())
	a.InitialReconfigMS.Add(ev.InitialReconfig.Millis())
	a.DynamicReconfigMS.Add(ev.DynamicReconfig.Millis())
	a.CommMS.Add(ev.Comm.Millis())
	a.Contexts.Add(float64(ev.Contexts))
	if r.Outcome.MetDeadline {
		a.DeadlineMet++
	}
	a.Evaluations += r.Outcome.Evaluations
	a.Speculated += r.Outcome.Speculated
	a.Discarded += r.Outcome.Discarded
	if r.Outcome.EarlyStopped {
		a.EarlyStopped++
	}
	if len(r.Outcome.MoveProposed) > 0 {
		if a.MoveProposed == nil {
			a.MoveProposed = make(map[string]int64)
		}
		for k, v := range r.Outcome.MoveProposed {
			a.MoveProposed[k] += v
		}
	}
	if len(r.Outcome.MoveAccepted) > 0 {
		if a.MoveAccepted == nil {
			a.MoveAccepted = make(map[string]int64)
		}
		for k, v := range r.Outcome.MoveAccepted {
			a.MoveAccepted[k] += v
		}
	}
	if r.Outcome.FromCache {
		a.CacheHits++
	}
	if ss := r.Outcome.Sched; ss != nil {
		if ss.Policy != "" {
			a.SchedPolicy = ss.Policy
		}
		if len(ss.Arms) > 0 && a.SchedSlices == nil {
			a.SchedSlices = make(map[string]int64)
			a.SchedSteps = make(map[string]int64)
			a.SchedReward = make(map[string]float64)
		}
		for _, arm := range ss.Arms {
			a.SchedSlices[arm.Name] += int64(arm.Slices)
			a.SchedSteps[arm.Name] += int64(arm.Steps)
			a.SchedReward[arm.Name] += arm.Reward
		}
		if ss.TransferKey != "" {
			a.TransferRuns++
			if a.TransferKey == "" {
				a.TransferKey, a.TransferCost = ss.TransferKey, ss.TransferCost
			}
		}
	}
	// Objective-consistent winner selection: compare by scalarized cost
	// when both sides report one, by makespan otherwise (a batch is
	// homogeneous — one RunFunc — so the comparator never flip-flops).
	better := a.Completed == 1 // first completed run seeds the incumbent
	if !better {
		if r.Outcome.HasCost && a.BestHasCost {
			better = r.Outcome.Cost < a.BestCost
		} else {
			better = ev.Makespan < a.BestEval.Makespan
		}
	}
	if better {
		a.Best = r.Outcome.Best
		a.BestEval = ev
		a.BestRun = r.Run
		a.BestSeed = r.Seed
		a.BestCost = r.Outcome.Cost
		a.BestHasCost = r.Outcome.HasCost
	}
	if app != nil && r.Outcome.Best != nil {
		a.Archive.Add(model.Impl{CLBs: objective.HWAreaOf(app, r.Outcome.Best), Time: ev.Makespan}, r.Run)
	}
	if f := r.Outcome.Front; f != nil {
		if a.Front == nil {
			a.Front = pareto.NewNArchive(f.Dims())
		}
		for _, p := range f.Points() {
			a.Front.Add(p.V, r.Run)
		}
	}
}

// indexed pairs a worker's outcome with its run index for the merger.
type indexed struct {
	run int
	out *Outcome
	err error
}

// Run executes opts.runs() invocations of fn over opts.workers() workers
// and returns the streamed aggregate. app is used to compute archive area
// points; it may be nil to disable the archive.
//
// On cancellation the aggregate of every run that completed is returned
// together with the context's error. On a run error the remaining runs are
// cancelled and the first error (lowest run index) is returned, again with
// the partial aggregate.
func Run(ctx context.Context, app *model.App, opts Options, fn RunFunc) (*Aggregate, error) {
	if fn == nil {
		return nil, fmt.Errorf("runner: nil RunFunc")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	runs := opts.runs()
	workers := opts.workers()
	if workers > runs {
		workers = runs
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	jobs := make(chan int)
	results := make(chan indexed, workers)

	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for run := range jobs {
				out, err := fn(ctx, run, opts.BaseSeed+int64(run))
				// The merger drains results until every worker exits, so
				// this send cannot block and a run finished concurrently
				// with cancellation still reaches the partial aggregate.
				results <- indexed{run: run, out: out, err: err}
			}
		}()
	}
	go func() {
		defer close(jobs)
		for run := 0; run < runs; run++ {
			// Checked before the select too: with a worker ready to
			// receive AND the context done, select would pick randomly
			// and could dispatch runs into a cancelled batch.
			if ctx.Err() != nil {
				return
			}
			select {
			case jobs <- run:
			case <-ctx.Done():
				return
			}
		}
	}()
	go func() {
		wg.Wait()
		close(results)
	}()

	// In-order merger: hold out-of-order completions in a reorder buffer
	// and release them into the aggregate strictly by run index, so the
	// streamed statistics are independent of worker scheduling.
	agg := &Aggregate{Requested: runs}
	pending := make(map[int]indexed, workers)
	next := 0
	var firstErr error
	errRun := runs
	flush := func() {
		for {
			r, ok := pending[next]
			if !ok {
				return
			}
			delete(pending, next)
			if r.err == nil && r.out != nil {
				res := RunResult{Run: r.run, Seed: opts.BaseSeed + int64(r.run), Outcome: *r.out}
				agg.add(app, res)
				if opts.OnResult != nil {
					opts.OnResult(res)
				}
			}
			next++
		}
	}
	for r := range results {
		// Cancellation errors are the batch winding down, not run
		// failures; among genuine errors keep the lowest run index so the
		// reported error is deterministic.
		if r.err != nil && !errors.Is(r.err, context.Canceled) &&
			!errors.Is(r.err, context.DeadlineExceeded) && r.run < errRun {
			firstErr, errRun = fmt.Errorf("runner: run %d (seed %d): %w",
				r.run, opts.BaseSeed+int64(r.run), r.err), r.run
			cancel()
		}
		pending[r.run] = r
		flush()
	}
	// Under cancellation some indices never arrive; release whatever
	// completed beyond the gaps (sorted order no longer guaranteed to be
	// gap-free, but still ascending).
	for next < runs && len(pending) > 0 {
		if _, ok := pending[next]; !ok {
			next++
			continue
		}
		flush()
	}

	if firstErr != nil {
		return agg, firstErr
	}
	return agg, ctx.Err()
}
