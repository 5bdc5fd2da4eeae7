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
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"runtime"
	"time"

	"repro/dse"
	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/objective"
	"repro/internal/pareto"
	"repro/internal/prof"
	"repro/internal/report"
	"repro/internal/runner"
	"repro/internal/sched"
	"repro/internal/search"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("dsexplore: ")
	var (
		appPath    = flag.String("app", "", "application JSON file")
		archPath   = flag.String("arch", "", "architecture JSON file")
		motion     = flag.Bool("motion", false, "use the built-in motion-detection benchmark")
		nclb       = flag.Int("nclb", 2000, "FPGA capacity for the built-in architecture")
		iters      = flag.Int("iters", 5000, "annealing iterations")
		seed       = flag.Int64("seed", 1, "random seed (base of the seed stream when -runs > 1)")
		runs       = flag.Int("runs", 1, "independent annealing runs (best reported)")
		workers    = flag.Int("j", runtime.NumCPU(), "parallel runs when -runs > 1")
		quality    = flag.Float64("quality", 0.05, "Lam schedule quality (λ): smaller = slower, better")
		deadlineMS = flag.Float64("deadline", 0, "real-time constraint in ms (0 = none)")
		gantt      = flag.Bool("gantt", false, "print the schedule as a Gantt listing")
		assign     = flag.Bool("assign", true, "print the per-task assignment table")
		dumpApp    = flag.String("dump-app", "", "write the built-in application JSON here and exit")
		dumpArch   = flag.String("dump-arch", "", "write the built-in architecture JSON here and exit")
		cpuprofile = flag.String("cpuprofile", "", "write a pprof CPU profile of the exploration to this file")
		memprofile = flag.String("memprofile", "", "write a pprof heap profile to this file on exit")
		strategy   = flag.String("strategy", "sa", "search strategy: sa, ga, list, brute, portfolio, bandit")
		schedPol   = flag.String("sched", "", "composite-strategy scheduling policy: rr or ucb (empty = the kind's default: portfolio=rr, bandit=ucb)")
		schedSlice = flag.Int("sched-slice", 0, "UCB budget-slice length in driver steps (0 = engine default)")
		transfer   = flag.Bool("transfer", false, "with -server: warm-start the job from the server's best cached outcome on the same instance pair")
		wArea      = flag.Float64("w-area", 0, "objective weight on occupied hardware area (cost units per CLB)")
		wReconf    = flag.Float64("w-reconf", 0, "objective weight on reconfiguration time (cost units per ms, initial+dynamic)")
		server     = flag.String("server", "", "submit the job to this dsed server (e.g. http://localhost:8080) instead of running locally")
		batch      = flag.Int("batch", 0, "speculative batch width for SA moves (<=1 = serial; changes the trajectory deterministically)")
		earlyStop  = flag.Float64("early-stop", 0, "adaptive early stop: end a run when best cost improves < this fraction over -early-stop-window steps (0 = off)")
		earlyStopW = flag.Int("early-stop-window", 32, "sliding-window length (driver steps) of -early-stop")
	)
	flag.Parse()

	stopProfiles := prof.Start(*cpuprofile, *memprofile)
	defer stopProfiles()

	mcfg := apps.DefaultMotionConfig()
	if *dumpApp != "" || *dumpArch != "" {
		if *dumpApp != "" {
			writeJSON(*dumpApp, func(f *os.File) error { return model.WriteApp(f, apps.MotionDetection(mcfg)) })
			fmt.Printf("wrote %s\n", *dumpApp)
		}
		if *dumpArch != "" {
			writeJSON(*dumpArch, func(f *os.File) error { return model.WriteArch(f, apps.MotionArch(*nclb, mcfg)) })
			fmt.Printf("wrote %s\n", *dumpArch)
		}
		return
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
			log.Fatal("need both -app and -arch (or -motion)")
		}
		if app, err = model.LoadApp(*appPath); err != nil {
			log.Fatal(err)
		}
		if arch, err = model.LoadArch(*archPath); err != nil {
			log.Fatal(err)
		}
	}

	if *server != "" {
		spec := dse.JobSpec{
			App: app, Arch: arch,
			Strategy: *strategy, Runs: *runs, Seed: *seed, Workers: *workers,
			SAIters: *iters, Quality: *quality, DeadlineMS: *deadlineMS,
			WArea: *wArea, WReconf: *wReconf,
			Batch: *batch, EarlyStopEpsilon: *earlyStop, EarlyStopWindow: *earlyStopW,
			Sched: *schedPol, SchedSlice: *schedSlice, Transfer: *transfer,
		}
		runRemote(*server, spec)
		return
	}

	cfg := core.DefaultConfig()
	cfg.MaxIters = *iters
	cfg.Seed = *seed
	cfg.Quality = *quality
	cfg.Deadline = model.FromMillis(*deadlineMS)
	cfg.Batch = *batch

	scfg := search.DefaultConfig()
	scfg.SA = cfg
	scfg.FrontMetrics = []objective.Metric{objective.HWArea, objective.Makespan}
	scfg.Sched = *schedPol
	scfg.SchedSlice = *schedSlice
	if *transfer {
		// A local dsexplore invocation holds no result cache to donate
		// from; transfer is meaningful against a dsed server.
		log.Print("warning: -transfer has no effect without -server (no local result cache)")
	}
	if *earlyStop > 0 {
		scfg.EarlyStopEpsilon = *earlyStop
		scfg.EarlyStopWindow = *earlyStopW
	}
	if *wArea != 0 || *wReconf != 0 {
		scal := objective.FixedArch()
		scal.Weights[objective.HWArea] = *wArea
		scal.Weights[objective.InitialReconfig] = *wReconf
		scal.Weights[objective.DynamicReconfig] = *wReconf
		scfg.Objective = &scal
	}
	factory, err := search.NewFactory(*strategy, app, arch, scfg)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("application %q (%d tasks) on %q, strategy %s\n\n", app.Name, app.N(), arch.Name, *strategy)

	var (
		best  *sched.Mapping
		b     sched.Result
		front *pareto.NArchive
	)
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
			log.Fatal(err)
		}
		if agg.Completed == 0 {
			log.Fatal("interrupted before any run completed")
		}
		elapsed := time.Since(start)
		best, b, front = agg.Best, agg.BestEval, agg.Front
		fmt.Printf("  runs completed          : %d/%d (%d workers)\n", agg.Completed, agg.Requested, *workers)
		fmt.Printf("  execution time          : mean %.3f ms, median %.3f ms, p95 %.3f ms\n",
			agg.MakespanMS.Mean(), agg.MakespanMS.Median(), agg.MakespanMS.Quantile(0.95))
		fmt.Printf("  best execution time     : %v (run %d, seed %d)\n", b.Makespan, agg.BestRun, agg.BestSeed)
		if cfg.Deadline > 0 {
			fmt.Printf("  constraint %v met    : %d/%d runs\n", cfg.Deadline, agg.DeadlineMet, agg.Completed)
		}
		fmt.Printf("  contexts                : mean %.2f, best %d\n", agg.Contexts.Mean(), b.Contexts)
		fmt.Printf("  area/time archive       : %d non-dominated points\n", agg.Archive.Len())
		fmt.Printf("  optimizer wall time     : %v total, %v per run\n\n",
			elapsed.Round(time.Millisecond),
			(elapsed / time.Duration(agg.Completed)).Round(time.Millisecond))
	} else {
		out, err := search.Run(context.Background(), factory, *seed, 0)
		if err != nil {
			log.Fatal(err)
		}
		elapsed := time.Since(start)
		best, b, front = out.Best, out.Eval, out.Front
		fmt.Printf("  best execution time     : %v (cost %.4f)\n", b.Makespan, out.Cost)
		if cfg.Deadline > 0 {
			fmt.Printf("  constraint %v met    : %v\n", cfg.Deadline, out.MetDeadline)
		}
		fmt.Printf("  contexts                : %d\n", b.Contexts)
		fmt.Printf("  optimizer wall time     : %v\n", elapsed.Round(time.Millisecond))
	}
	fmt.Printf("  compute sw/hw           : %v / %v\n", b.ComputeSW, b.ComputeHW)
	fmt.Printf("  bus communication       : %v\n", b.Comm)
	fmt.Printf("  reconfiguration         : initial %v + dynamic %v\n\n", b.InitialReconfig, b.DynamicReconfig)

	if front != nil && front.Len() > 0 {
		fmt.Println("area/makespan Pareto front (non-dominated solutions visited):")
		tb := report.NewTable("clbs", "makespan_ms")
		for _, p := range front.Points() {
			tb.AddRow(int(p.V[0]), p.V[1])
		}
		if err := tb.Render(os.Stdout); err != nil {
			log.Fatal(err)
		}
		fmt.Println()
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
		if err := tb.Render(os.Stdout); err != nil {
			log.Fatal(err)
		}
		fmt.Println()
	}

	if *gantt {
		e := sched.NewEvaluator(app, arch)
		if _, err := e.Evaluate(best); err != nil {
			log.Fatal(err)
		}
		tb := report.NewTable("lane", "start", "end", "activity")
		for _, en := range sched.Gantt(e, best) {
			tb.AddRow(en.Lane, en.Start.String(), en.End.String(), en.Label)
		}
		if err := tb.Render(os.Stdout); err != nil {
			log.Fatal(err)
		}
	}
}

// runRemote ships the instance to a dsed server as a synchronous
// streaming job, prints each completed run as it arrives, and closes with
// the server-side summary (cache hits included). The spec carries every
// result-shaping knob of the local path (strategy, budget, quality,
// objective weights, deadline), so the remote run optimizes the same
// cost as the identical local invocation. Interrupting drops the
// connection, which cancels the remote computation.
func runRemote(base string, spec dse.JobSpec) {
	ctx, stopSig := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stopSig()
	client := dse.NewClient(base)
	if err := client.Health(ctx); err != nil {
		log.Fatalf("server %s unreachable: %v", base, err)
	}
	fmt.Printf("application %q (%d tasks) on %q, strategy %s — served by %s\n\n",
		spec.App.Name, spec.App.N(), spec.Arch.Name, spec.Strategy, base)
	start := time.Now()
	summary, err := client.RunJob(ctx, spec, func(ev dse.JobEvent) {
		cached := ""
		if ev.Cached {
			cached = "  [cache]"
		}
		fmt.Printf("  run %3d (seed %d): cost %.4f, %.3f ms, %d contexts%s\n",
			ev.Run, ev.Seed, ev.Cost, ev.MakespanMS, ev.Contexts, cached)
	})
	if err != nil {
		if summary == nil {
			log.Fatal(err)
		}
		fmt.Printf("\ninterrupted (%v) — partial summary:\n", err)
	}
	fmt.Printf("\n  runs completed          : %d/%d\n", summary.Completed, summary.Requested)
	fmt.Printf("  best cost               : %.4f (run %d, seed %d)\n", summary.BestCost, summary.BestRun, summary.BestSeed)
	fmt.Printf("  best execution time     : %.3f ms (mean %.3f ms)\n", summary.BestMakespanMS, summary.MeanMakespanMS)
	fmt.Printf("  area/makespan front     : %d non-dominated points\n", summary.FrontSize)
	fmt.Printf("  evaluations             : %d (%d runs from cache)\n", summary.Evaluations, summary.CacheHits)
	if summary.TransferRuns > 0 {
		fmt.Printf("  transfer donor          : %s (cost %.4f, %d runs seeded)\n",
			summary.TransferKey, summary.TransferCost, summary.TransferRuns)
	}
	fmt.Printf("  server wall time        : %.1f ms (round trip %v)\n",
		summary.WallMS, time.Since(start).Round(time.Millisecond))
}

func writeJSON(path string, write func(*os.File) error) {
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	if err := write(f); err != nil {
		log.Fatal(err)
	}
}
