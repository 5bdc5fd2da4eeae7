// Command dsexplore is the general design-space exploration CLI: it maps an
// application (JSON, or the built-in motion-detection benchmark) onto a
// reconfigurable architecture (JSON, or the built-in ARM922+Virtex-E) and
// prints the best mapping found, its timing breakdown, and optionally a
// Gantt chart of the schedule.
//
// With -runs above 1 it fans that many independent annealing runs out over
// -j workers (deterministic per-run seeds seed+i), reports the cross-run
// statistics, and prints the overall best mapping.
//
// The search strategy is selectable (-strategy {sa,ga,list,brute,
// portfolio}); every strategy runs behind the unified search engine and
// scores solutions through the shared objective layer, whose weights are
// adjustable (-w-area, -w-reconf). Each run also archives the area/makespan
// Pareto front of the solutions it visits; the front is printed after the
// run (and merged across runs with -runs > 1).
//
// Usage:
//
//	dsexplore -motion [-nclb 2000] [-gantt]
//	dsexplore -motion -runs 100 -j 8
//	dsexplore -motion -strategy portfolio -w-area 0.001
//	dsexplore -app app.json -arch arch.json [-deadline 40] [-gantt]
//	dsexplore -dump-app app.json -dump-arch arch.json    # emit built-ins
//	dsexplore -motion -runs 20 -server http://localhost:8080
//
// With -server the exploration is submitted to a dsed job server instead
// of running locally: the application and architecture ship inline, the
// per-run results stream back live, and repeated submissions are answered
// from the server's memoized result cache. Ctrl-C cancels the remote
// computation. (-gantt/-assign need the mapping itself, which the wire
// summary does not carry, so they are local-only.)
package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"runtime"
	"time"

	"repro/dse"
	"repro/internal/apps"
	"repro/internal/cli"
	"repro/internal/model"
	"repro/internal/objective"
	"repro/internal/pareto"
	"repro/internal/prof"
	"repro/internal/report"
	"repro/internal/runner"
	"repro/internal/sched"
	"repro/internal/search"
)

func main() { cli.Main("dsexplore", run) }

// run parses args, explores locally or on a dsed server, and writes the
// report to stdout.
func run(args []string, stdout io.Writer) error {
	fs := cli.NewFlagSet("dsexplore")
	var ov search.Overrides
	ov.RegisterFlags(fs)
	fs.IntVar(&ov.SAIters, "iters", 5000, "annealing iterations")
	fs.Float64Var(&ov.Quality, "quality", 0.05, "Lam schedule quality (λ): smaller = slower, better")
	fs.Float64Var(&ov.WArea, "w-area", 0, "objective weight on occupied hardware area (cost units per CLB)")
	fs.Float64Var(&ov.WReconf, "w-reconf", 0, "objective weight on reconfiguration time (cost units per ms, initial+dynamic)")
	var (
		appPath    = fs.String("app", "", "application JSON file")
		archPath   = fs.String("arch", "", "architecture JSON file")
		motion     = fs.Bool("motion", false, "use the built-in motion-detection benchmark")
		nclb       = fs.Int("nclb", 2000, "FPGA capacity for the built-in architecture")
		seed       = fs.Int64("seed", 1, "random seed (base of the seed stream when -runs > 1)")
		runs       = fs.Int("runs", 1, "independent annealing runs (best reported)")
		workers    = fs.Int("j", runtime.NumCPU(), "parallel runs when -runs > 1")
		deadlineMS = fs.Float64("deadline", 0, "real-time constraint in ms (0 = none)")
		gantt      = fs.Bool("gantt", false, "print the schedule as a Gantt listing")
		assign     = fs.Bool("assign", true, "print the per-task assignment table")
		dumpApp    = fs.String("dump-app", "", "write the built-in application JSON here and exit")
		dumpArch   = fs.String("dump-arch", "", "write the built-in architecture JSON here and exit")
		cpuprofile = fs.String("cpuprofile", "", "write a pprof CPU profile of the exploration to this file")
		memprofile = fs.String("memprofile", "", "write a pprof heap profile to this file on exit")
		strategy   = fs.String("strategy", "sa", "search strategy: sa, ga, list, brute, portfolio, bandit")
		server     = fs.String("server", "", "submit the job to this dsed server (e.g. http://localhost:8080) instead of running locally")
	)
	if err := cli.Parse(fs, args); err != nil {
		return err
	}

	stopProfiles := prof.Start(*cpuprofile, *memprofile)
	defer stopProfiles()

	mcfg := apps.DefaultMotionConfig()
	if *dumpApp != "" || *dumpArch != "" {
		if *dumpApp != "" {
			if err := cli.WriteFile(*dumpApp, func(w io.Writer) error { return model.WriteApp(w, apps.MotionDetection(mcfg)) }); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "wrote %s\n", *dumpApp)
		}
		if *dumpArch != "" {
			if err := cli.WriteFile(*dumpArch, func(w io.Writer) error { return model.WriteArch(w, apps.MotionArch(*nclb, mcfg)) }); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "wrote %s\n", *dumpArch)
		}
		return nil
	}

	var (
		app  *model.App
		arch *model.Arch
		err  error
	)
	switch {
	case *motion || (*appPath == "" && *archPath == ""):
		app = apps.MotionDetection(mcfg)
		arch = apps.MotionArch(*nclb, mcfg)
		if *deadlineMS == 0 {
			*deadlineMS = apps.MotionDeadline.Millis()
		}
	default:
		if *appPath == "" || *archPath == "" {
			return errors.New("need both -app and -arch (or -motion)")
		}
		if app, err = model.LoadApp(*appPath); err != nil {
			return err
		}
		if arch, err = model.LoadArch(*archPath); err != nil {
			return err
		}
	}

	// One Overrides value configures both paths: the local config below
	// and the -server spec, which dsed applies to the same defaults.
	scfg := search.DefaultConfig()
	scfg.SA.Deadline = model.FromMillis(*deadlineMS)
	scfg.FrontMetrics = []objective.Metric{objective.HWArea, objective.Makespan}
	if err := ov.Apply(&scfg); err != nil {
		return err
	}
	if *server != "" {
		return runRemote(stdout, *server, dse.JobSpec{
			App: app, Arch: arch,
			Strategy: *strategy, Runs: *runs, Seed: *seed, Workers: *workers,
			DeadlineMS: *deadlineMS, Overrides: ov,
		})
	}
	if ov.Transfer {
		// A local dsexplore invocation holds no result cache to donate
		// from; transfer is meaningful against a dsed server.
		log.Print("warning: -transfer has no effect without -server (no local result cache)")
	}
	factory, err := search.NewFactory(*strategy, app, arch, scfg)
	if err != nil {
		return err
	}

	fmt.Fprintf(stdout, "application %q (%d tasks) on %q, strategy %s\n\n", app.Name, app.N(), arch.Name, *strategy)

	var (
		best  *sched.Mapping
		b     sched.Result
		front *pareto.NArchive
	)
	deadline := scfg.SA.Deadline
	start := time.Now()
	if *runs > 1 {
		ctx, stopSig := signal.NotifyContext(context.Background(), os.Interrupt)
		defer stopSig()
		agg, err := runner.Run(ctx, app, runner.Options{
			Runs:     *runs,
			Workers:  *workers,
			BaseSeed: *seed,
		}, runner.Strategy(factory))
		if err != nil && ctx.Err() == nil {
			return err
		}
		if agg.Completed == 0 {
			return errors.New("interrupted before any run completed")
		}
		elapsed := time.Since(start)
		best, b, front = agg.Best, agg.BestEval, agg.Front
		fmt.Fprintf(stdout, "  runs completed          : %d/%d (%d workers)\n", agg.Completed, agg.Requested, *workers)
		fmt.Fprintf(stdout, "  execution time          : mean %.3f ms, median %.3f ms, p95 %.3f ms\n",
			agg.MakespanMS.Mean(), agg.MakespanMS.Median(), agg.MakespanMS.Quantile(0.95))
		fmt.Fprintf(stdout, "  best execution time     : %v (run %d, seed %d)\n", b.Makespan, agg.BestRun, agg.BestSeed)
		if deadline > 0 {
			fmt.Fprintf(stdout, "  constraint %v met    : %d/%d runs\n", deadline, agg.DeadlineMet, agg.Completed)
		}
		fmt.Fprintf(stdout, "  contexts                : mean %.2f, best %d\n", agg.Contexts.Mean(), b.Contexts)
		fmt.Fprintf(stdout, "  area/time archive       : %d non-dominated points\n", agg.Archive.Len())
		fmt.Fprintf(stdout, "  optimizer wall time     : %v total, %v per run\n\n",
			elapsed.Round(time.Millisecond),
			(elapsed / time.Duration(agg.Completed)).Round(time.Millisecond))
	} else {
		out, err := search.Run(context.Background(), factory, *seed, 0)
		if err != nil {
			return err
		}
		elapsed := time.Since(start)
		best, b, front = out.Best, out.Eval, out.Front
		fmt.Fprintf(stdout, "  best execution time     : %v (cost %.4f)\n", b.Makespan, out.Cost)
		if deadline > 0 {
			fmt.Fprintf(stdout, "  constraint %v met    : %v\n", deadline, out.MetDeadline)
		}
		fmt.Fprintf(stdout, "  contexts                : %d\n", b.Contexts)
		fmt.Fprintf(stdout, "  optimizer wall time     : %v\n", elapsed.Round(time.Millisecond))
	}
	fmt.Fprintf(stdout, "  compute sw/hw           : %v / %v\n", b.ComputeSW, b.ComputeHW)
	fmt.Fprintf(stdout, "  bus communication       : %v\n", b.Comm)
	fmt.Fprintf(stdout, "  reconfiguration         : initial %v + dynamic %v\n\n", b.InitialReconfig, b.DynamicReconfig)

	if front != nil && front.Len() > 0 {
		fmt.Fprintln(stdout, "area/makespan Pareto front (non-dominated solutions visited):")
		tb := report.NewTable("clbs", "makespan_ms")
		for _, p := range front.Points() {
			tb.AddRow(int(p.V[0]), p.V[1])
		}
		if err := tb.Render(stdout); err != nil {
			return err
		}
		fmt.Fprintln(stdout)
	}

	if *assign {
		tb := report.NewTable("task", "name", "resource", "impl", "clbs", "time")
		for t := 0; t < app.N(); t++ {
			pl := best.Assign[t]
			task := &app.Tasks[t]
			switch pl.Kind {
			case model.KindProcessor:
				tb.AddRow(t, task.Name, fmt.Sprintf("proc%d", pl.Res), "-", "-", task.SW.String())
			case model.KindRC:
				im := task.HW[best.Impl[t]]
				tb.AddRow(t, task.Name, fmt.Sprintf("rc%d/ctx%d", pl.Res, pl.Ctx),
					best.Impl[t], im.CLBs, im.Time.String())
			case model.KindASIC:
				im := task.HW[best.Impl[t]]
				tb.AddRow(t, task.Name, fmt.Sprintf("asic%d", pl.Res),
					best.Impl[t], im.CLBs, im.Time.String())
			}
		}
		if err := tb.Render(stdout); err != nil {
			return err
		}
		fmt.Fprintln(stdout)
	}

	if *gantt {
		e := sched.NewEvaluator(app, arch)
		if _, err := e.Evaluate(best); err != nil {
			return err
		}
		tb := report.NewTable("lane", "start", "end", "activity")
		for _, en := range sched.Gantt(e, best) {
			tb.AddRow(en.Lane, en.Start.String(), en.End.String(), en.Label)
		}
		if err := tb.Render(stdout); err != nil {
			return err
		}
	}
	return nil
}

// runRemote ships the instance to a dsed server as a synchronous
// streaming job, prints each completed run as it arrives, and closes with
// the server-side summary (cache hits included). The spec carries the
// same Overrides as the local path, so the remote run optimizes the same
// cost as the identical local invocation. Interrupting drops the
// connection, which cancels the remote computation.
func runRemote(stdout io.Writer, base string, spec dse.JobSpec) error {
	ctx, stopSig := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stopSig()
	client := dse.NewClient(base)
	if err := client.Health(ctx); err != nil {
		return fmt.Errorf("server %s unreachable: %w", base, err)
	}
	fmt.Fprintf(stdout, "application %q (%d tasks) on %q, strategy %s — served by %s\n\n",
		spec.App.Name, spec.App.N(), spec.Arch.Name, spec.Strategy, base)
	start := time.Now()
	summary, err := client.RunJob(ctx, spec, func(ev dse.JobEvent) {
		cached := ""
		if ev.Cached {
			cached = "  [cache]"
		}
		fmt.Fprintf(stdout, "  run %3d (seed %d): cost %.4f, %.3f ms, %d contexts%s\n",
			ev.Run, ev.Seed, ev.Cost, ev.MakespanMS, ev.Contexts, cached)
	})
	if err != nil {
		if summary == nil {
			return err
		}
		fmt.Fprintf(stdout, "\ninterrupted (%v) — partial summary:\n", err)
	}
	fmt.Fprintf(stdout, "\n  runs completed          : %d/%d\n", summary.Completed, summary.Requested)
	fmt.Fprintf(stdout, "  best cost               : %.4f (run %d, seed %d)\n", summary.BestCost, summary.BestRun, summary.BestSeed)
	fmt.Fprintf(stdout, "  best execution time     : %.3f ms (mean %.3f ms)\n", summary.BestMakespanMS, summary.MeanMakespanMS)
	fmt.Fprintf(stdout, "  area/makespan front     : %d non-dominated points\n", summary.FrontSize)
	fmt.Fprintf(stdout, "  evaluations             : %d (%d runs from cache)\n", summary.Evaluations, summary.CacheHits)
	if summary.TransferRuns > 0 {
		fmt.Fprintf(stdout, "  transfer donor          : %s (cost %.4f, %d runs seeded)\n",
			summary.TransferKey, summary.TransferCost, summary.TransferRuns)
	}
	fmt.Fprintf(stdout, "  server wall time        : %.1f ms (round trip %v)\n",
		summary.WallMS, time.Since(start).Round(time.Millisecond))
	return nil
}
