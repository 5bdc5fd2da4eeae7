// Command dsesweep regenerates Figure 3 of the paper: average execution
// time, reconfiguration times (initial and dynamic) and number of contexts
// versus FPGA size, each point averaged over many annealing runs of the
// motion-detection application.
//
// Usage:
//
//	dsesweep [-sizes 100,200,...] [-runs 100] [-j 8] [-splits=false] [-csv out.csv]
//	dsesweep -strategy portfolio -w-area 0.001     # multi-objective sweep
//
// The runs of each sweep point are independent, so they fan out over -j
// workers (default: all cores) through the multi-run engine; per-seed
// results are identical whatever -j is. With -splits=false contexts are
// created only through capacity overflow (the paper's mechanism); this is
// the mode that reproduces the published curve, including the
// single-context plateau at large devices. Interrupting the sweep (Ctrl-C)
// renders the table of the points completed so far.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/objective"
	"repro/internal/prof"
	"repro/internal/report"
	"repro/internal/runner"
	"repro/internal/search"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("dsesweep: ")
	var (
		sizesFlag  = flag.String("sizes", "100,200,400,600,800,1200,1600,2000,3000,4000,5000,7000,10000", "comma-separated FPGA sizes (CLBs)")
		runs       = flag.Int("runs", 100, "annealing runs per size (paper: 100)")
		iters      = flag.Int("iters", 5000, "annealing iterations per run")
		workers    = flag.Int("j", runtime.NumCPU(), "parallel annealing runs")
		baseSeed   = flag.Int64("seed", 0, "base of the per-run seed stream (run i uses seed+i)")
		splits     = flag.Bool("splits", false, "enable the context-splitting extension move (paper mode: off)")
		csvPath    = flag.String("csv", "", "write results to this CSV file")
		noplot     = flag.Bool("noplot", false, "suppress the ASCII plot")
		cpuprofile = flag.String("cpuprofile", "", "write a pprof CPU profile of the sweep to this file")
		memprofile = flag.String("memprofile", "", "write a pprof heap profile to this file on exit")
		strategy   = flag.String("strategy", "sa", "search strategy per run: sa, ga, list, brute, portfolio, bandit")
		schedPol   = flag.String("sched", "", "composite-strategy scheduling policy: rr or ucb (empty = the kind's default)")
		schedSlice = flag.Int("sched-slice", 0, "UCB budget-slice length in driver steps (0 = engine default)")
		transfer   = flag.Bool("transfer", false, "warm-start each sweep point from the best cached outcome on the same instance pair (needs -cache; earlier points seed later ones of the same size)")
		wArea      = flag.Float64("w-area", 0, "objective weight on occupied hardware area (cost units per CLB)")
		wReconf    = flag.Float64("w-reconf", 0, "objective weight on reconfiguration time (cost units per ms, initial+dynamic)")
		cacheOn    = flag.Bool("cache", false, "memoize run outcomes across sweep points (repeated sizes/seeds become cache hits)")
		batch      = flag.Int("batch", 0, "speculative batch width for SA moves (<=1 = serial; changes the trajectory deterministically)")
		earlyStop  = flag.Float64("early-stop", 0, "adaptive early stop: end a run when best cost improves < this fraction over -early-stop-window steps (0 = off)")
		earlyStopW = flag.Int("early-stop-window", 32, "sliding-window length (driver steps) of -early-stop")
	)
	flag.Parse()

	stopProfiles := prof.Start(*cpuprofile, *memprofile)
	defer stopProfiles()

	sizes, err := parseSizes(*sizesFlag)
	if err != nil {
		log.Fatal(err)
	}
	mcfg := apps.DefaultMotionConfig()
	app := apps.MotionDetection(mcfg)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	var cache *runner.ResultCache
	if *cacheOn {
		cache = runner.NewResultCache(0, 0)
	}

	fmt.Printf("Figure 3 — device-size sweep on %q (%d runs/size, %d iterations, %d workers, splits=%v, strategy %s)\n\n",
		app.Name, *runs, *iters, *workers, *splits, *strategy)

	tb := report.NewTable("nclb", "exec_ms", "init_reconf_ms", "dyn_reconf_ms", "contexts", "met_40ms", "best_ms", "p95_ms")
	var xs, yExec, yCtx, yRcI, yRcD []float64
	start := time.Now()
	for _, nclb := range sizes {
		arch := apps.MotionArch(nclb, mcfg)
		cfg := core.DefaultConfig()
		cfg.MaxIters = *iters
		cfg.Deadline = apps.MotionDeadline
		cfg.EnableCtxSplit = *splits
		cfg.Batch = *batch
		scfg := search.DefaultConfig()
		scfg.SA = cfg
		scfg.Sched = *schedPol
		scfg.SchedSlice = *schedSlice
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
		if *transfer {
			// Warm-start from the best cached donor on this (app, arch)
			// pair; must precede WithCache so the donor key reaches the
			// cache keys. Distinct sizes are distinct arch digests, so a
			// point only inherits from runs of its own size.
			runner.ApplyTransfer(factory, cache)
		}
		fn, err := runner.WithCache(runner.CacheConfig{Cache: cache, Factory: factory})
		if err != nil {
			log.Fatal(err)
		}
		agg, err := runner.Run(ctx, app, runner.Options{
			Runs:     *runs,
			Workers:  *workers,
			BaseSeed: *baseSeed,
		}, fn)
		if err != nil && ctx.Err() == nil {
			log.Fatal(err)
		}
		if agg.Completed == 0 {
			break // interrupted before the first run of this point finished
		}
		tb.AddRow(nclb,
			agg.MakespanMS.Mean(),
			agg.InitialReconfigMS.Mean(),
			agg.DynamicReconfigMS.Mean(),
			agg.Contexts.Mean(),
			fmt.Sprintf("%d/%d", agg.DeadlineMet, agg.Completed),
			agg.MakespanMS.Min(),
			agg.MakespanMS.Quantile(0.95))
		xs = append(xs, float64(nclb))
		yExec = append(yExec, agg.MakespanMS.Mean())
		yCtx = append(yCtx, agg.Contexts.Mean())
		yRcI = append(yRcI, agg.InitialReconfigMS.Mean())
		yRcD = append(yRcD, agg.DynamicReconfigMS.Mean())
		if ctx.Err() != nil {
			break
		}
	}
	if ctx.Err() != nil {
		fmt.Println("interrupted — showing completed sweep points")
	}

	if err := tb.Render(os.Stdout); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ntotal wall time: %v\n", time.Since(start).Round(time.Millisecond))
	if cache != nil {
		st := cache.Stats()
		fmt.Printf("result cache: %d hits, %d misses, %d resident\n", st.Hits, st.Misses, st.Entries)
	}

	if !*noplot && len(xs) > 1 {
		fmt.Println("\nexecution time / reconfiguration times (ms) and contexts vs FPGA size:")
		err := report.Plot(os.Stdout, 78, 16,
			report.Series{Name: "execution time (ms)", X: xs, Y: yExec},
			report.Series{Name: "number of contexts", X: xs, Y: yCtx},
			report.Series{Name: "initial reconfiguration (ms)", X: xs, Y: yRcI},
			report.Series{Name: "dynamic reconfiguration (ms)", X: xs, Y: yRcD},
		)
		if err != nil {
			log.Fatal(err)
		}
	}

	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		if err := tb.CSV(f); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("results written to %s\n", *csvPath)
	}
}

func parseSizes(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.Atoi(part)
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("invalid size %q", part)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no sizes given")
	}
	return out, nil
}
