package scenario

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/combi"
	"repro/internal/model"
	"repro/internal/objective"
	"repro/internal/report"
	"repro/internal/runner"
	"repro/internal/search"
)

// MatrixOptions configures a strategy × scenario benchmark matrix.
type MatrixOptions struct {
	// Strategies are the unified-engine strategy names to run per
	// scenario; empty selects the full matrix (search.Names()).
	Strategies []string
	// Runs overrides each scenario's default independent-run count when
	// positive.
	Runs int
	// Workers is the per-cell worker-pool size (0 = NumCPU).
	Workers int
	// BaseSeed offsets the per-run seed streams; cells are reproducible
	// for any worker count.
	BaseSeed int64
	// MaxSteps caps driver steps per run when positive, overriding the
	// scenario budget (dsebench -max-steps, for quick bounded sweeps).
	MaxSteps int
	// Overrides apply the shared search knobs to every cell (batched
	// cells compare against batched baselines only). Transfer, with
	// Cache, warm-starts every warmable cell from the best cached outcome
	// on its (app, arch) pair, earlier cells of the same matrix included.
	search.Overrides
	// Cache, when non-nil, memoizes per-run outcomes under the
	// deterministic run key, so repeated cells (and repeated matrix
	// invocations sharing the cache) are served without recomputation.
	Cache *runner.ResultCache
	// Warm, when set together with Cache, runs every cell a second time
	// against the now-warm cache and records the warm pass in the row
	// (WarmWallMS, CacheHits). The warm pass must reproduce the cold
	// pass's quality fields bit-for-bit; any difference fails the matrix —
	// this is the acceptance gate of the result cache.
	Warm bool
	// Progress, when non-nil, receives each completed cell in matrix
	// order.
	Progress func(report.BenchRow)
}

// strategies resolves the effective strategy list.
func (o *MatrixOptions) strategies() []string {
	if len(o.Strategies) > 0 {
		return o.Strategies
	}
	return search.Names()
}

// frontMetrics is the area/makespan trade-off every cell archives; the
// row's FrontSize is the merged cross-run front.
var frontMetrics = []objective.Metric{objective.HWArea, objective.Makespan}

// runCell executes one (scenario, strategy) cell and times it.
func runCell(ctx context.Context, app *model.App, ropts runner.Options, fn runner.RunFunc) (*runner.Aggregate, time.Duration, error) {
	start := time.Now()
	agg, err := runner.Run(ctx, app, ropts, fn)
	return agg, time.Since(start), err
}

// fillRow copies a cell aggregate into its report row. BestCost comes
// straight from the aggregate now that the engine's winner selection is
// objective-consistent (the strategy adapters report per-run costs, so
// Aggregate.BestCost is the cross-run minimum).
func fillRow(row *report.BenchRow, agg *runner.Aggregate, wall time.Duration) {
	row.BestCost = math.Inf(1)
	if agg.BestHasCost {
		row.BestCost = agg.BestCost
	}
	row.BestMakespanMS = agg.BestEval.Makespan.Millis()
	row.MeanMakespanMS = agg.MakespanMS.Mean()
	row.DeadlineMet = agg.DeadlineMet
	row.Evaluations = agg.Evaluations
	if f := agg.Front; f != nil {
		row.FrontSize = f.Len()
	}
	row.WallMS = float64(wall.Microseconds()) / 1e3
	if secs := wall.Seconds(); secs > 0 {
		row.EvalsPerSec = float64(agg.Evaluations) / secs
	}
	row.Speculated = agg.Speculated
	row.Discarded = agg.Discarded
	row.EarlyStopped = agg.EarlyStopped
	row.MoveProposed = agg.MoveProposed
	row.MoveAccepted = agg.MoveAccepted
	row.Sched = agg.SchedPolicy
	row.SchedSlices = agg.SchedSlices
	row.SchedSteps = agg.SchedSteps
	row.SchedReward = agg.SchedReward
	row.TransferKey = agg.TransferKey
	row.TransferCost = agg.TransferCost
	row.TransferRuns = agg.TransferRuns
}

// RunMatrix executes every (scenario, strategy) cell of the matrix on the
// parallel multi-run engine and returns one report.BenchRow per cell, in
// matrix order (scenarios as given, strategies inner). Infeasible cells —
// today only brute on instances above its task bound — come back as
// skipped rows rather than errors, so one oversized scenario cannot sink
// a whole benchmark batch. Cancelling ctx returns the completed rows with
// ctx.Err().
func RunMatrix(ctx context.Context, scenarios []*Scenario, opts MatrixOptions) ([]report.BenchRow, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	rows := make([]report.BenchRow, 0, len(scenarios)*len(opts.strategies()))
	emit := func(row report.BenchRow) {
		rows = append(rows, row)
		if opts.Progress != nil {
			opts.Progress(row)
		}
	}
	for _, s := range scenarios {
		app, arch, err := s.Instantiate()
		if err != nil {
			return rows, err
		}
		cfg := s.SearchConfig()
		cfg.FrontMetrics = frontMetrics
		if err := opts.Apply(&cfg); err != nil {
			return rows, err
		}
		runs := s.Budget.Runs
		if opts.Runs > 0 {
			runs = opts.Runs
		}
		if runs < 1 {
			runs = 1
		}
		maxSteps := s.Budget.MaxSteps
		if opts.MaxSteps > 0 {
			maxSteps = opts.MaxSteps
		}
		for _, name := range opts.strategies() {
			if ctx.Err() != nil {
				return rows, ctx.Err()
			}
			row := report.BenchRow{
				Scenario:         s.Name,
				Family:           s.Family,
				Size:             s.Size.String(),
				Strategy:         name,
				Tasks:            app.N(),
				Runs:             runs,
				EarlyStopEpsilon: cfg.EarlyStopEpsilon,
				EarlyStopWindow:  cfg.EarlyStopWindow,
			}
			if name == "sa" && cfg.SA.Batch > 1 {
				row.Batch = cfg.SA.Batch
			}
			if name == "brute" && app.N() > combi.MaxExhaustiveTasks {
				row.Skipped = fmt.Sprintf("%d tasks > brute bound %d", app.N(), combi.MaxExhaustiveTasks)
				emit(row)
				continue
			}
			factory, err := search.NewFactory(name, app, arch, cfg)
			if err != nil {
				return rows, fmt.Errorf("scenario %s, strategy %s: %w", s.Name, name, err)
			}
			fn, err := runner.WithCache(runner.CacheConfig{Cache: opts.Cache, Factory: factory, MaxSteps: maxSteps, Transfer: opts.Transfer})
			if err != nil {
				return rows, fmt.Errorf("scenario %s, strategy %s: %w", s.Name, name, err)
			}
			ropts := runner.Options{Runs: runs, Workers: opts.Workers, BaseSeed: opts.BaseSeed}
			agg, wall, err := runCell(ctx, app, ropts, fn)
			if err != nil {
				if ctx.Err() != nil {
					return rows, ctx.Err()
				}
				return rows, fmt.Errorf("scenario %s, strategy %s: %w", s.Name, name, err)
			}
			fillRow(&row, agg, wall)
			if opts.Cache != nil && opts.Warm {
				// Second pass over the warm cache: same seeds, same budget.
				warmAgg, warmWall, err := runCell(ctx, app, ropts, fn)
				if err != nil {
					if ctx.Err() != nil {
						return rows, ctx.Err()
					}
					return rows, fmt.Errorf("scenario %s, strategy %s (warm): %w", s.Name, name, err)
				}
				var warmRow report.BenchRow
				fillRow(&warmRow, warmAgg, warmWall)
				if warmRow.BestCost != row.BestCost || warmRow.BestMakespanMS != row.BestMakespanMS ||
					warmRow.MeanMakespanMS != row.MeanMakespanMS || warmRow.FrontSize != row.FrontSize ||
					warmRow.DeadlineMet != row.DeadlineMet || warmRow.Evaluations != row.Evaluations ||
					warmRow.Speculated != row.Speculated || warmRow.Discarded != row.Discarded ||
					warmRow.EarlyStopped != row.EarlyStopped {
					return rows, fmt.Errorf("scenario %s, strategy %s: warm pass diverged from cold (cold %+v, warm %+v)",
						s.Name, name, row, warmRow)
				}
				row.WarmWallMS = float64(warmWall.Microseconds()) / 1e3
				row.CacheHits = warmAgg.CacheHits
			}
			emit(row)
		}
	}
	return rows, nil
}
