package runner

import (
	"context"

	"repro/internal/core"
	"repro/internal/ga"
	"repro/internal/model"
	"repro/internal/search"
)

// stopFromCtx combines a run config's own Stop hook with context
// cancellation. The hook only fires when the context is actually cancelled,
// so uncancelled runs stay bit-for-bit deterministic.
func stopFromCtx(ctx context.Context, prev func() bool) func() bool {
	return func() bool {
		if ctx.Err() != nil {
			return true
		}
		return prev != nil && prev()
	}
}

// SA builds the RunFunc of a simulated-annealing batch: cfg is the shared
// template, each run overrides only the seed. App and arch validation and
// the precedence-closure construction happen once here, not once per run.
func SA(app *model.App, arch *model.Arch, cfg core.Config) (RunFunc, error) {
	prep, err := core.Prepare(app, arch)
	if err != nil {
		return nil, err
	}
	// Recycle the instance-sized evaluator scratch across the batch's
	// runs (see scratch.go) — pure throughput, bit-identical results.
	rec := recyclerFor(app, arch)
	return func(ctx context.Context, run int, seed int64) (*Outcome, error) {
		c := cfg
		c.Seed = seed
		c.Stop = stopFromCtx(ctx, cfg.Stop)
		c.Recycler = rec
		res, err := prep.Explore(c)
		if err != nil {
			return nil, err
		}
		// A run truncated by cancellation returned its barely-annealed
		// best-so-far; keep it out of the completed-run statistics.
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return &Outcome{Best: res.Best, Eval: res.BestEval, MetDeadline: res.MetDeadline, Front: res.Front}, nil
	}, nil
}

// Strategy builds the RunFunc of a batch over any strategy of the unified
// search engine ("sa", "ga", "list", "brute", "portfolio", "bandit"): each run
// drives one fresh instance built by the factory to exhaustion. The
// factory is constructed once, so validation and the SA preparation are
// hoisted out of the per-run path.
func Strategy(f *search.Factory) RunFunc { return StrategyBudget(f, 0) }

// StrategyBudget is Strategy with a per-run step budget: each run drives
// its instance for at most maxSteps driver steps (0 = to exhaustion) and
// reports the strategy's evaluation telemetry in Outcome.Evaluations —
// the budgeted batch primitive behind the dsebench scenario matrix.
func StrategyBudget(f *search.Factory, maxSteps int) RunFunc {
	// Recycle evaluator scratch across the batch's runs (see scratch.go);
	// results are bit-identical with or without it, so the factory's
	// fingerprint — and thus every cache key — is unaffected.
	f.SetRecycler(recyclerFor(f.App(), f.Arch()))
	return func(ctx context.Context, run int, seed int64) (*Outcome, error) {
		out, stats, err := search.RunStats(ctx, f, seed, maxSteps)
		if err != nil {
			return nil, err
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return &Outcome{
			Best:         out.Best,
			Eval:         out.Eval,
			MetDeadline:  out.MetDeadline,
			Front:        out.Front,
			Evaluations:  stats.Evaluations,
			Cost:         out.Cost,
			HasCost:      true,
			Speculated:   stats.Speculated,
			Discarded:    stats.Discarded,
			EarlyStopped: stats.EarlyStopped,
			MoveProposed: moveKindMap(stats.MoveStats.Proposed),
			MoveAccepted: moveKindMap(stats.MoveStats.Accepted),
			Sched:        stats.Sched,
		}, nil
	}
}

// moveKindMap converts a per-kind counter array to its named wire form,
// keeping only the kinds that fired; nil when none did.
func moveKindMap(counts [core.NumMoveKinds]int64) map[string]int64 {
	var m map[string]int64
	for k, v := range counts {
		if v == 0 {
			continue
		}
		if m == nil {
			m = make(map[string]int64)
		}
		m[core.MoveKindName(k)] = v
	}
	return m
}

// GA builds the RunFunc of a genetic-algorithm baseline batch. deadline is
// the real-time constraint used for the MetDeadline report (0 = none); the
// GA scores fitness through the shared objective layer (by default the
// fixed-architecture cost: makespan plus the context tie-break — the same
// cost the annealer minimizes).
func GA(app *model.App, arch *model.Arch, cfg ga.Config, deadline model.Time) (RunFunc, error) {
	if err := app.Validate(); err != nil {
		return nil, err
	}
	if err := arch.Validate(); err != nil {
		return nil, err
	}
	return func(ctx context.Context, run int, seed int64) (*Outcome, error) {
		c := cfg
		c.Seed = seed
		c.Stop = stopFromCtx(ctx, cfg.Stop)
		res, err := ga.Explore(app, arch, c)
		if err != nil {
			return nil, err
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return &Outcome{
			Best:        res.Best,
			Eval:        res.BestEval,
			MetDeadline: deadline <= 0 || res.BestEval.Makespan <= deadline,
			Front:       res.Front,
		}, nil
	}, nil
}
