package runner

import (
	"context"

	"repro/internal/core"
	"repro/internal/search"
)

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
