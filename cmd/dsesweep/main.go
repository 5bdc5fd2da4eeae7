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
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/apps"
	"repro/internal/cli"
	"repro/internal/prof"
	"repro/internal/report"
	"repro/internal/runner"
	"repro/internal/search"
)

func main() { cli.Main("dsesweep", run) }

// run parses args, sweeps the device sizes and writes the table (and
// optionally the plot and CSV) to stdout.
func run(args []string, stdout io.Writer) error {
	fs := cli.NewFlagSet("dsesweep")
	var ov search.Overrides
	ov.RegisterFlags(fs)
	fs.IntVar(&ov.SAIters, "iters", 5000, "annealing iterations per run")
	fs.Float64Var(&ov.WArea, "w-area", 0, "objective weight on occupied hardware area (cost units per CLB)")
	fs.Float64Var(&ov.WReconf, "w-reconf", 0, "objective weight on reconfiguration time (cost units per ms, initial+dynamic)")
	var (
		sizesFlag  = fs.String("sizes", "100,200,400,600,800,1200,1600,2000,3000,4000,5000,7000,10000", "comma-separated FPGA sizes (CLBs)")
		runs       = fs.Int("runs", 100, "annealing runs per size (paper: 100)")
		workers    = fs.Int("j", runtime.NumCPU(), "parallel annealing runs")
		baseSeed   = fs.Int64("seed", 0, "base of the per-run seed stream (run i uses seed+i)")
		splits     = fs.Bool("splits", false, "enable the context-splitting extension move (paper mode: off)")
		csvPath    = fs.String("csv", "", "write results to this CSV file")
		noplot     = fs.Bool("noplot", false, "suppress the ASCII plot")
		cpuprofile = fs.String("cpuprofile", "", "write a pprof CPU profile of the sweep to this file")
		memprofile = fs.String("memprofile", "", "write a pprof heap profile to this file on exit")
		strategy   = fs.String("strategy", "sa", "search strategy per run: sa, ga, list, brute, portfolio, bandit")
		cacheOn    = fs.Bool("cache", false, "memoize run outcomes across sweep points (repeated sizes/seeds become cache hits)")
	)
	if err := cli.Parse(fs, args); err != nil {
		return err
	}

	stopProfiles := prof.Start(*cpuprofile, *memprofile)
	defer stopProfiles()

	sizes, err := parseSizes(*sizesFlag)
	if err != nil {
		return err
	}
	mcfg := apps.DefaultMotionConfig()
	app := apps.MotionDetection(mcfg)
	scfg := search.DefaultConfig()
	scfg.SA.Deadline = apps.MotionDeadline
	scfg.SA.EnableCtxSplit = *splits
	if err := ov.Apply(&scfg); err != nil {
		return err
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	var cache *runner.ResultCache
	if *cacheOn || ov.Transfer {
		// -transfer draws its donors from the result cache. Distinct sizes
		// are distinct arch digests, so a point only inherits from runs of
		// its own size.
		cache = runner.NewResultCache(0)
	}

	fmt.Fprintf(stdout, "Figure 3 — device-size sweep on %q (%d runs/size, %d iterations, %d workers, splits=%v, strategy %s)\n\n",
		app.Name, *runs, scfg.SA.MaxIters, *workers, *splits, *strategy)

	tb := report.NewTable("nclb", "exec_ms", "init_reconf_ms", "dyn_reconf_ms", "contexts", "met_40ms", "best_ms", "p95_ms")
	var xs, yExec, yCtx, yRcI, yRcD []float64
	start := time.Now()
	for _, nclb := range sizes {
		arch := apps.MotionArch(nclb, mcfg)
		factory, err := search.NewFactory(*strategy, app, arch, scfg)
		if err != nil {
			return err
		}
		fn, err := runner.WithCache(runner.CacheConfig{Cache: cache, Factory: factory, Transfer: ov.Transfer})
		if err != nil {
			return err
		}
		agg, err := runner.Run(ctx, app, runner.Options{
			Runs:     *runs,
			Workers:  *workers,
			BaseSeed: *baseSeed,
		}, fn)
		if err != nil && ctx.Err() == nil {
			return err
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
		fmt.Fprintln(stdout, "interrupted — showing completed sweep points")
	}

	if err := tb.Render(stdout); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "\ntotal wall time: %v\n", time.Since(start).Round(time.Millisecond))
	if cache != nil {
		st := cache.Stats()
		fmt.Fprintf(stdout, "result cache: %d hits, %d misses, %d resident\n", st.Hits, st.Misses, st.Entries)
	}

	if !*noplot && len(xs) > 1 {
		fmt.Fprintln(stdout, "\nexecution time / reconfiguration times (ms) and contexts vs FPGA size:")
		err := report.Plot(stdout, 78, 16,
			report.Series{Name: "execution time (ms)", X: xs, Y: yExec},
			report.Series{Name: "number of contexts", X: xs, Y: yCtx},
			report.Series{Name: "initial reconfiguration (ms)", X: xs, Y: yRcI},
			report.Series{Name: "dynamic reconfiguration (ms)", X: xs, Y: yRcD},
		)
		if err != nil {
			return err
		}
	}

	if *csvPath != "" {
		if err := cli.WriteFile(*csvPath, tb.CSV); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "results written to %s\n", *csvPath)
	}
	return nil
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
