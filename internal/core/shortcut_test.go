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
	trace  []core.TracePoint
	res    *core.Result
	counts core.Counts
}

func runCounting(t *testing.T, name string, cfg core.Config, noHook bool) shortcutRun {
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
	out.res, out.counts, err = core.ExploreCounting(app, arch, cfg, noHook)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// sameRun fails unless two runs decided exactly the same: every trace
// point, the statistics, the best evaluation and the front with its offer
// IDs.
func sameRun(t *testing.T, name string, a, b shortcutRun) {
	t.Helper()
	if len(a.trace) != len(b.trace) {
		t.Fatalf("%s: trace lengths differ: %d vs %d", name, len(a.trace), len(b.trace))
	}
	for i := range a.trace {
		if a.trace[i] != b.trace[i] {
			t.Fatalf("%s: traces diverge at %d:\n  %+v\n  %+v", name, i, a.trace[i], b.trace[i])
		}
	}
	if a.res.Stats != b.res.Stats || a.res.MoveStats != b.res.MoveStats || a.res.BestEval != b.res.BestEval {
		t.Fatalf("%s: results differ:\n  %+v %+v %+v\n  %+v %+v %+v", name,
			a.res.Stats, a.res.MoveStats, a.res.BestEval, b.res.Stats, b.res.MoveStats, b.res.BestEval)
	}
	if pa, pb := a.res.Front.Points(), b.res.Front.Points(); !reflect.DeepEqual(pa, pb) {
		t.Fatalf("%s: fronts differ:\n  %+v\n  %+v", name, pa, pb)
	}
}

// TestShortcutsKeepTheTrajectory: on layered-large, serial and at batch
// 8, both evaluation paths cut moves at their chain-free bound, skip
// no-op reorders and refuse placements that close a cycle on their own
// resource — and each path's run still decides exactly what the same path
// decides with its stop hook removed, which evaluates every move in full.
// Both paths cut the same moves, and the two paths' runs are identical.
func TestShortcutsKeepTheTrajectory(t *testing.T) {
	sc, _ := scenario.Lookup("layered-large")
	for _, batch := range []int{0, 8} {
		cfg := sc.SearchConfig().SA
		cfg.Seed = 3
		cfg.Batch = batch
		cfg.FrontMetrics = []objective.Metric{objective.HWArea, objective.Makespan}
		var runs [2]shortcutRun
		for i, path := range []struct {
			name string
			mode core.EvalMode
		}{{"incremental", core.EvalIncremental}, {"full", core.EvalFull}} {
			cfg.EvalMode = path.mode
			cut := runCounting(t, "layered-large", cfg, false)
			exact := runCounting(t, "layered-large", cfg, true)
			name := fmt.Sprintf("layered-large/batch%d/%s", batch, path.name)
			evals := cut.res.Stats.Accepted + cut.res.Stats.Rejected
			t.Logf("%s: %d of %d feasible evaluations cut, %d no-op reorders skipped, %d placements refused",
				name, cut.counts.Cuts, evals, cut.counts.Noops, cut.counts.Refusals)
			if cut.counts.Cuts == 0 || cut.counts.Noops == 0 || cut.counts.Refusals == 0 {
				t.Fatalf("%s: shortcuts never taken: %+v", name, cut.counts)
			}
			if exact.counts.Cuts != 0 {
				t.Fatalf("%s: %d moves cut without a stop hook", name, exact.counts.Cuts)
			}
			sameRun(t, name+" without its hook", cut, exact)
			runs[i] = cut
		}
		name := fmt.Sprintf("layered-large/batch%d", batch)
		if inc, full := runs[0].counts, runs[1].counts; inc != full {
			t.Fatalf("%s: the paths took different shortcuts: incremental %+v, full %+v", name, inc, full)
		}
		sameRun(t, name+" incremental vs full", runs[0], runs[1])
	}
}
