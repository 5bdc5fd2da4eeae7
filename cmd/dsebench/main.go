// Command dsebench runs the scenario corpus through the unified strategy
// engine and reports per-cell quality and throughput: for every selected
// (scenario, strategy) pair it fans the scenario's budgeted runs out over
// the parallel multi-run engine and records best scalarized cost, best and
// mean makespan, merged Pareto-front size, evaluation count, evals/s and
// wall time. Results render as an aligned table and persist as JSON/CSV —
// the BENCH_PR4.json trajectory CI archives per commit.
//
// Against a baseline file the run becomes a regression gate: cells whose
// best cost worsens by more than -threshold, whose evals/s drops by more
// than -threshold below the baseline (gated only for cells whose baseline
// measurement ran ≥1 s — report.ThroughputGateMinWallMS — since
// millisecond rates are noise), or that disappear fail the run with exit
// code 3. The throughput gate makes the committed baseline
// machine-specific: regenerate it (make bench-baseline) when the
// reference machine or build flags change.
//
// With -cache every cell runs behind the memoized result cache and is
// then run a second, cache-warm time: the warm pass must reproduce
// the cold pass's quality fields bit-for-bit (the run is a pure function
// of its key) and the row records the warm wall time and hit count — the
// cold-vs-warm trajectory BENCH_PR5.json archives.
//
// The shared search flags (-batch, -early-stop, -early-stop-window,
// -sched-slice, -transfer; see search.Overrides) apply to every cell:
// -batch runs the SA cells with speculative batched move evaluation (a
// different but deterministic trajectory, so batched results compare only
// against batched baselines), -early-stop enables the adaptive early stop,
// -sched-slice sets the bandit's UCB budget-slice length, and -transfer
// warm-starts warmable cells from the best cached outcome on the same
// instance pair. Each composite kind keeps its own policy: portfolio is
// round-robin, bandit is UCB1. -sched-gate 0.05 compares the matrix's
// bandit rows against its portfolio rows — the bandit must match or beat
// the round-robin portfolio on at least half the scenarios and never be
// more than 5% worse, else exit 3 (the `make bench-check`
// adaptive-scheduling leg).
//
// -append merges this invocation's rows into an existing -json file, so
// a matrix can be assembled in slices; -baseline then gates the whole
// merged file, not just this invocation's rows.
// -diff OLD.json NEW.json runs nothing: it prints the per-cell evals/s
// and best-cost deltas between two result files (`make bench-diff`).
//
// Usage:
//
//	dsebench -list                              # the scenario catalog
//	dsebench                                    # full corpus × sa,list
//	dsebench -scenarios layered,paper-fig2 -strategies sa,ga,list -runs 5 -j 8
//	dsebench -smoke -json BENCH_PR5.json        # CI: tiny corpus, fast budgets
//	dsebench -smoke -cache                      # cold vs warm cell times
//	dsebench -smoke -baseline bench/BENCH_BASELINE.json -threshold 0.20
//	dsebench -scenarios layered-xl -strategies sa -batch 8 -json b.json -append
//	dsebench -diff bench/BENCH_BASELINE.json BENCH_PR8.json
//
// Exit codes: 0 success, 1 run error, 2 flag-usage error (the flag
// package's convention), 3 regression vs baseline.
package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"strings"

	"repro/internal/apps"
	"repro/internal/cli"
	"repro/internal/prof"
	"repro/internal/report"
	"repro/internal/runner"
	"repro/internal/scenario"
	"repro/internal/search"
)

func main() { cli.Main("dsebench", run) }

// run parses args, runs (or diffs) the matrix and writes the report to
// stdout.
func run(args []string, stdout io.Writer) error {
	fs := cli.NewFlagSet("dsebench")
	var opts scenario.MatrixOptions
	opts.RegisterFlags(fs)
	var (
		list       = fs.Bool("list", false, "print the scenario catalog and exit")
		sel        = fs.String("scenarios", "", "comma-separated scenario or family names (empty = whole corpus)")
		strategies = fs.String("strategies", "sa,list", "comma-separated strategy names (sa,ga,list,brute,portfolio,bandit)")
		runs       = fs.Int("runs", 0, "independent runs per cell (0 = the scenario's budget)")
		workers    = fs.Int("j", runtime.NumCPU(), "parallel runs per cell")
		seed       = fs.Int64("seed", 0, "base of the per-run seed streams")
		maxSteps   = fs.Int("max-steps", 0, "cap driver steps per run (0 = scenario budget)")
		smoke      = fs.Bool("smoke", false, "smoke mode: tiny/small scenarios only, 2 runs per cell")
		jsonPath   = fs.String("json", "", "write results as JSON to this file")
		csvPath    = fs.String("csv", "", "write results as CSV to this file")
		baseline   = fs.String("baseline", "", "compare best costs against this JSON baseline")
		threshold  = fs.Float64("threshold", 0.20, "relative best-cost worsening that counts as a regression")
		cacheOn    = fs.Bool("cache", false, "memoize run outcomes and rerun each cell cache-warm (records warm_ms and hits)")
		cacheSize  = fs.Int("cache-size", 8192, "result-cache capacity in entries (with -cache or -transfer)")
		verbose    = fs.Bool("v", false, "print each cell as it completes")
		appendJSON = fs.Bool("append", false, "merge rows into an existing -json file instead of overwriting it")
		cpuprofile = fs.String("cpuprofile", "", "write a pprof CPU profile of the matrix to this file")
		diffOld    = fs.String("diff", "", "diff mode: print per-cell evals/s and best-cost deltas from this old result file to the NEW.json positional argument; no cells are run")
		schedGate  = fs.Float64("sched-gate", 0, "gate: bandit best cost must match or beat portfolio on >= half the scenarios and never be more than this fraction worse (0 = off; matrix must contain both strategies); exit 3 on failure")
	)
	if err := cli.Parse(fs, args); err != nil {
		return err
	}

	if *list {
		return printCatalog(stdout)
	}
	if *diffOld != "" {
		if fs.NArg() != 1 {
			return errors.New("usage: dsebench -diff OLD.json NEW.json")
		}
		oldFile, err := report.LoadBench(*diffOld)
		if err != nil {
			return err
		}
		newFile, err := report.LoadBench(fs.Arg(0))
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "%s -> %s\n", *diffOld, fs.Arg(0))
		report.DiffBench(stdout, oldFile, newFile)
		return nil
	}
	// The effective knobs, for the file's params (and an early error on a
	// bad value).
	var eff search.Config
	if err := opts.Apply(&eff); err != nil {
		return err
	}

	scens, err := scenario.Select(*sel)
	if err != nil {
		return err
	}
	stopProfile := prof.Start(*cpuprofile, "")
	defer stopProfile()

	opts.Strategies = scenario.SplitComma(*strategies)
	opts.Runs, opts.Workers, opts.BaseSeed, opts.MaxSteps = *runs, *workers, *seed, *maxSteps
	if *cacheOn || opts.Transfer {
		// -transfer needs the result cache as its donor index, but only
		// -cache asks for the warm verification rerun.
		opts.Cache = runner.NewResultCache(*cacheSize)
		opts.Warm = *cacheOn
	}
	if *smoke {
		// The CI job's contract: a corpus slice small enough to finish in
		// seconds under the race detector, still spanning ≥3 families.
		var tiny []*scenario.Scenario
		for _, s := range scens {
			if s.Size <= apps.Small {
				tiny = append(tiny, s)
			}
		}
		scens = tiny
		if opts.Runs == 0 {
			opts.Runs = 2
		}
	}
	if len(scens) == 0 {
		return errors.New("no scenarios selected")
	}
	if *verbose {
		opts.Progress = func(r report.BenchRow) {
			if r.Skipped != "" {
				fmt.Fprintf(stdout, "%-24s %-10s skipped (%s)\n", r.Scenario, r.Strategy, r.Skipped)
				return
			}
			fmt.Fprintf(stdout, "%-24s %-10s cost %.4f  best %.3f ms  %d evals  %.0f evals/s  %.0f ms\n",
				r.Scenario, r.Strategy, r.BestCost, r.BestMakespanMS, r.Evaluations, r.EvalsPerSec, r.WallMS)
		}
	}

	ctx, stopSig := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stopSig()
	rows, runErr := scenario.RunMatrix(ctx, scens, opts)
	// RunMatrix returns the completed cells alongside a cancellation or
	// per-cell error; persist and render what finished before failing, so
	// an interrupted overnight matrix is not thrown away.
	if runErr != nil && len(rows) == 0 {
		return runErr
	}

	file := &report.BenchFile{
		Tool: "dsebench",
		Params: map[string]string{
			"strategies": *strategies,
			"smoke":      fmt.Sprint(*smoke),
			"seed":       fmt.Sprint(*seed),
			"cache":      fmt.Sprint(*cacheOn),
		},
		Results: rows,
	}
	if eff.SA.Batch > 1 {
		file.Params["batch"] = fmt.Sprint(eff.SA.Batch)
	}
	if eff.EarlyStopEpsilon > 0 {
		file.Params["earlyStop"] = fmt.Sprintf("%g/%d", eff.EarlyStopEpsilon, eff.EarlyStopWindow)
	}
	if eff.SchedSlice > 0 {
		file.Params["schedSlice"] = fmt.Sprint(eff.SchedSlice)
	}
	if opts.Transfer {
		file.Params["transfer"] = "true"
	}
	fmt.Fprintln(stdout)
	if err := report.BenchTable(file).Render(stdout); err != nil {
		return err
	}
	// out is what -json persists and -baseline gates: this invocation's
	// rows, or — with -append — the whole merged file, so a matrix
	// assembled in slices is gated as one unit by its final slice.
	out := file
	if *jsonPath != "" {
		if *appendJSON {
			if prev, err := report.LoadBench(*jsonPath); err == nil {
				// Merge: this invocation's rows replace same-key rows of the
				// existing file and append after the rest, so re-running a
				// slice updates it in place.
				fresh := make(map[string]bool, len(rows))
				for i := range rows {
					fresh[rows[i].Key()] = true
				}
				merged := prev
				kept := merged.Results[:0]
				for _, r := range merged.Results {
					if !fresh[r.Key()] {
						kept = append(kept, r)
					}
				}
				merged.Results = append(kept, rows...)
				for k, v := range file.Params {
					if merged.Params == nil {
						merged.Params = map[string]string{}
					}
					merged.Params[k] = v
				}
				out = merged
			} else if !os.IsNotExist(err) {
				return err
			}
		}
		if err := report.SaveBench(*jsonPath, out); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "\nwrote %s (%d cells)\n", *jsonPath, len(out.Results))
	}
	if *csvPath != "" {
		if err := cli.WriteFile(*csvPath, report.BenchTable(file).CSV); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %s\n", *csvPath)
	}
	if runErr != nil {
		// Partial results persisted above; a truncated matrix must not be
		// baseline-gated (missing cells would read as regressions).
		return fmt.Errorf("stopped after %d completed cell(s): %w", len(rows), runErr)
	}

	if *baseline != "" {
		base, err := report.LoadBench(*baseline)
		if err != nil {
			return err
		}
		regs := report.CompareBench(base, out, *threshold)
		if len(regs) > 0 {
			fmt.Fprintf(stdout, "\n%d regression(s) vs %s (threshold %.0f%%):\n", len(regs), *baseline, *threshold*100)
			for _, r := range regs {
				fmt.Fprintln(stdout, "  "+r.String())
			}
			return cli.ErrGate
		}
		gated := 0
		for _, r := range base.Results {
			if r.Skipped == "" {
				gated++
			}
		}
		fmt.Fprintf(stdout, "\nno regressions vs %s (threshold %.0f%%, %d gated cells)\n",
			*baseline, *threshold*100, gated)
	}
	if *schedGate > 0 {
		g, ok := report.CompareSched(out, "bandit", "portfolio", *schedGate)
		if !ok {
			fmt.Fprintf(stdout, "\nsched gate FAILED (bandit vs portfolio, tolerance %.0f%%): %d/%d wins",
				*schedGate*100, g.Wins, g.Cells)
			if g.Cells == 0 {
				fmt.Fprint(stdout, " — no comparable cells (run both strategies)")
			}
			fmt.Fprintln(stdout)
			for _, v := range g.Violations {
				fmt.Fprintln(stdout, "  "+v.String())
			}
			return cli.ErrGate
		}
		fmt.Fprintf(stdout, "\nsched gate ok: bandit matched or beat portfolio on %d/%d scenario(s), none worse than %.0f%%\n",
			g.Wins, g.Cells, *schedGate*100)
	}
	return nil
}

// printCatalog renders the registered corpus, instantiating each scenario
// for its task/resource counts.
func printCatalog(stdout io.Writer) error {
	tb := report.NewTable("name", "family", "size", "tasks", "arch", "deadline", "runs", "stresses")
	for _, s := range scenario.All() {
		app, arch, err := s.Instantiate()
		if err != nil {
			return err
		}
		deadline := "-"
		if s.DeadlineMS > 0 {
			deadline = fmt.Sprintf("%.0f ms", s.DeadlineMS)
		}
		shape := fmt.Sprintf("%dp+%drc", len(arch.Processors), len(arch.RCs))
		tb.AddRow(s.Name, s.Family, s.Size.String(), app.N(), shape, deadline, s.Budget.Runs, s.Stresses)
	}
	if err := tb.Render(stdout); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "\n%d scenarios in %d families: %s\n",
		len(scenario.Names()), len(scenario.Families()), strings.Join(scenario.Families(), ", "))
	return nil
}
