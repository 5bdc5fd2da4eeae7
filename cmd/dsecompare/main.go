// Command dsecompare reproduces the paper's comparison against the genetic
// algorithm of Ben Chehida & Auguin [6]: solution quality (execution time
// of the best mapping found) and optimizer runtime on the motion-detection
// application. The paper reports that the annealer beats the GA's 28 ms
// best and runs in under 10 s versus 4 minutes — an order of magnitude
// faster even at equal population.
//
// Both batches fan their independent runs out over -j workers through the
// multi-run engine; the wall_per_run column stays the honest single-run
// cost (total wall × workers / runs is an approximation under parallelism,
// so the table reports aggregate wall time and the run count explicitly).
//
// Usage:
//
//	dsecompare [-nclb 2000] [-sa-runs 10] [-ga-pop 300] [-ga-gens 120] [-j 8]
//	dsecompare -front front.csv      # dump the cross-run Pareto front as CSV
//	dsecompare -cache                # memoize runs (identical reruns hit the cache)
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"runtime"
	"time"

	"repro/internal/apps"
	"repro/internal/objective"
	"repro/internal/report"
	"repro/internal/runner"
	"repro/internal/search"
)

// errUsage reports a flag error; the flag set has already printed it
// together with the usage text.
var errUsage = errors.New("usage")

func main() {
	log.SetFlags(0)
	log.SetPrefix("dsecompare: ")
	if err := run(os.Args[1:], os.Stdout); err != nil {
		switch {
		case errors.Is(err, flag.ErrHelp):
			os.Exit(0)
		case errors.Is(err, errUsage):
			os.Exit(2)
		}
		log.Fatal(err)
	}
}

// run parses args, runs both batches and writes the comparison to
// stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("dsecompare", flag.ContinueOnError)
	var (
		nclb     = fs.Int("nclb", 2000, "FPGA capacity in CLBs")
		saRuns   = fs.Int("sa-runs", 10, "annealing runs (best/average reported)")
		saIter   = fs.Int("sa-iters", 5000, "annealing iterations per run")
		gaPop    = fs.Int("ga-pop", 300, "GA population (paper: 300)")
		gaGens   = fs.Int("ga-gens", 120, "GA generations")
		gaRuns   = fs.Int("ga-runs", 3, "GA runs (best/average reported)")
		workers  = fs.Int("j", runtime.NumCPU(), "parallel runs per method")
		frontCSV = fs.String("front", "", "write the cross-run area/makespan Pareto front to this CSV file")
		cacheOn  = fs.Bool("cache", false, "memoize run outcomes (identical reruns of either method become cache hits)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return errUsage
	}

	var cache *runner.ResultCache
	if *cacheOn {
		cache = runner.NewResultCache(0, 0)
	}

	mcfg := apps.DefaultMotionConfig()
	app := apps.MotionDetection(mcfg)
	arch := apps.MotionArch(*nclb, mcfg)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	fmt.Fprintf(stdout, "SA vs GA on %q, FPGA %d CLBs (deadline 40 ms, all-SW %v, %d workers)\n\n",
		app.Name, *nclb, app.TotalSW(), *workers)

	// batch runs one method's runs through the multi-run engine.
	batch := func(name string, cfg search.Config, runs int) (*runner.Aggregate, time.Duration, error) {
		f, err := search.NewFactory(name, app, arch, cfg)
		if err != nil {
			return nil, 0, err
		}
		fn, err := runner.WithCache(runner.CacheConfig{Cache: cache, Factory: f})
		if err != nil {
			return nil, 0, err
		}
		start := time.Now()
		agg, err := runner.Run(ctx, app, runner.Options{Runs: runs, Workers: *workers}, fn)
		if err != nil && ctx.Err() == nil {
			return nil, 0, err
		}
		return agg, time.Since(start), nil
	}

	// One configuration carries both methods' parameters; SA.Deadline
	// also sets the GA runs' deadline verdicts.
	cfg := search.DefaultConfig()
	cfg.SA.MaxIters = *saIter
	cfg.SA.Deadline = apps.MotionDeadline
	cfg.GA.Population = *gaPop
	cfg.GA.Generations = *gaGens

	// Simulated annealing (this paper). The runs collect the in-run
	// area/makespan fronts, merged across runs by the engine.
	saCfg := cfg
	saCfg.FrontMetrics = []objective.Metric{objective.HWArea, objective.Makespan}
	saAgg, saWall, err := batch("sa", saCfg, *saRuns)
	if err != nil {
		return err
	}

	// Genetic algorithm baseline [6].
	gaAgg, gaWall, err := batch("ga", cfg, *gaRuns)
	if err != nil {
		return err
	}

	if ctx.Err() != nil {
		if saAgg.Completed == 0 {
			return errors.New("interrupted before any run completed")
		}
		fmt.Fprintln(stdout, "interrupted — showing completed runs")
	}

	tb := report.NewTable("method", "best_ms", "avg_ms", "runs", "total_wall", "wall_per_run")
	addRow := func(name string, agg *runner.Aggregate, wall time.Duration) {
		n := agg.Completed
		if n == 0 {
			n = 1
		}
		tb.AddRow(name, agg.MakespanMS.Min(), agg.MakespanMS.Mean(),
			agg.Completed, wall.Round(time.Millisecond).String(),
			(wall / time.Duration(n)).Round(time.Millisecond).String())
	}
	addRow("adaptive SA (this paper)", saAgg, saWall)
	addRow(fmt.Sprintf("GA [6] pop=%d", *gaPop), gaAgg, gaWall)
	if err := tb.Render(stdout); err != nil {
		return err
	}
	if cache != nil {
		st := cache.Stats()
		fmt.Fprintf(stdout, "\nresult cache: %d hits, %d misses, %d resident (SA %d + GA %d cached runs)\n",
			st.Hits, st.Misses, st.Entries, saAgg.CacheHits, gaAgg.CacheHits)
	}

	if saAgg.Completed > 0 && gaAgg.Completed > 0 {
		saBest := saAgg.BestEval.Makespan
		gaBest := gaAgg.BestEval.Makespan
		fmt.Fprintf(stdout, "\nSA best %v (run %d) vs GA best %v (run %d) — SA better: %v (paper: 18.1 ms vs 28 ms)\n",
			saBest, saAgg.BestRun, gaBest, gaAgg.BestRun, saBest < gaBest)
		perSA := saWall / time.Duration(saAgg.Completed)
		perGA := gaWall / time.Duration(gaAgg.Completed)
		if perSA > 0 {
			fmt.Fprintf(stdout, "speed ratio (GA/SA per run): %.1f× (paper: ≥24×, ≥an order of magnitude)\n",
				float64(perGA)/float64(perSA))
		}
	}
	if *frontCSV != "" && saAgg.Front != nil {
		f, err := os.Create(*frontCSV)
		if err != nil {
			return err
		}
		ftb := report.NewTable("clbs", "makespan_ms", "run")
		for _, p := range saAgg.Front.Points() {
			ftb.AddRow(int(p.V[0]), p.V[1], p.ID)
		}
		if err := ftb.CSV(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "\ncross-run Pareto front (%d points) written to %s\n", saAgg.Front.Len(), *frontCSV)
	}
	if pts := saAgg.Archive.Points(); len(pts) > 1 {
		fmt.Fprintln(stdout, "\nSA cross-run area/time Pareto archive (occupied CLBs vs execution time):")
		atb := report.NewTable("clbs", "exec", "run")
		for _, p := range pts {
			atb.AddRow(p.Impl.CLBs, p.Impl.Time.String(), p.ID)
		}
		if err := atb.Render(stdout); err != nil {
			return err
		}
	}
	return nil
}
