package core_test

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/objective"
	"repro/internal/scenario"
)

// shortcutRun is everything a run decides, for comparing two runs.
type shortcutRun struct {
	trace       []core.TracePoint
	res         *core.Result
	cuts, noops int64
}

func runCounting(t *testing.T, name string, cfg core.Config) shortcutRun {
	t.Helper()
	sc, ok := scenario.Lookup(name)
	if !ok {
		t.Fatalf("unknown scenario %q", name)
	}
	app, arch, err := sc.Instantiate()
	if err != nil {
		t.Fatal(err)
	}
	var out shortcutRun
	cfg.Trace = func(p core.TracePoint) { out.trace = append(out.trace, p) }
	out.res, out.cuts, out.noops, err = core.ExploreCounting(app, arch, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestShortcutsKeepTheTrajectory: on layered-large, serial and at batch
// 8, the incremental path cuts moves at their chain-free bound and the
// explorer skips no-op reorders — and the run still decides exactly what
// the full path, which never cuts, decides: every trace point, the
// statistics, the best evaluation and the front with its offer IDs.
func TestShortcutsKeepTheTrajectory(t *testing.T) {
	sc, _ := scenario.Lookup("layered-large")
	for _, batch := range []int{0, 8} {
		cfg := sc.SearchConfig().SA
		cfg.Seed = 3
		cfg.Batch = batch
		cfg.FrontMetrics = []objective.Metric{objective.HWArea, objective.Makespan}
		cfg.EvalMode = core.EvalIncremental
		inc := runCounting(t, "layered-large", cfg)
		cfg.EvalMode = core.EvalFull
		full := runCounting(t, "layered-large", cfg)

		name := fmt.Sprintf("layered-large/batch%d", batch)
		evals := inc.res.Stats.Accepted + inc.res.Stats.Rejected
		t.Logf("%s: %d of %d feasible evaluations cut, %d no-op reorders skipped", name, inc.cuts, evals, inc.noops)
		if inc.cuts == 0 || inc.noops == 0 {
			t.Fatalf("%s: shortcuts never taken: %d cuts, %d no-ops", name, inc.cuts, inc.noops)
		}
		if full.cuts != 0 {
			t.Fatalf("%s: the full path cut %d moves", name, full.cuts)
		}
		if len(inc.trace) != len(full.trace) {
			t.Fatalf("%s: trace lengths differ: %d vs %d", name, len(inc.trace), len(full.trace))
		}
		for i := range inc.trace {
			if inc.trace[i] != full.trace[i] {
				t.Fatalf("%s: traces diverge at %d:\n  incremental %+v\n  full        %+v", name, i, inc.trace[i], full.trace[i])
			}
		}
		if inc.res.Stats != full.res.Stats || inc.res.MoveStats != full.res.MoveStats || inc.res.BestEval != full.res.BestEval {
			t.Fatalf("%s: results differ:\n  incremental %+v %+v %+v\n  full        %+v %+v %+v", name,
				inc.res.Stats, inc.res.MoveStats, inc.res.BestEval, full.res.Stats, full.res.MoveStats, full.res.BestEval)
		}
		if a, b := inc.res.Front.Points(), full.res.Front.Points(); !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: fronts differ:\n  incremental %+v\n  full        %+v", name, a, b)
		}
	}
}
