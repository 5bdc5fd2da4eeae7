// Command dsetrace regenerates Figure 2 of the paper: the evolution of the
// execution time and of the number of FPGA contexts during one annealing
// run on the motion-detection application (2000-CLB device, ~1200
// infinite-temperature iterations, 5000 iterations total).
//
// With -strategy portfolio or -strategy bandit the run goes through the
// composite scheduler instead, and the report is the per-arm budget
// table — slices, steps and accumulated reward per member strategy,
// plus the kind's policy (the portfolio's "rr" round-robin or the
// bandit's "ucb" deterministic UCB1) and, when the run was
// transfer-seeded, the donor key and incumbent cost.
//
// Usage:
//
//	dsetrace [-nclb 2000] [-iters 5000] [-warmup 1200] [-seed 1]
//	         [-quality 0.05] [-csv trace.csv] [-noplot]
//	dsetrace -strategy bandit [-sched-slice 8] [-max-steps 400]
//	dsetrace -strategy portfolio [-max-steps 400]
package main

import (
	"context"
	"fmt"
	"io"
	"time"

	"repro/internal/apps"
	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/report"
	"repro/internal/search"
)

func main() { cli.Main("dsetrace", run) }

// run parses args, traces one run and writes the report to stdout.
func run(args []string, stdout io.Writer) error {
	fs := cli.NewFlagSet("dsetrace")
	var (
		nclb    = fs.Int("nclb", 2000, "FPGA capacity in CLBs")
		iters   = fs.Int("iters", 5000, "annealing iterations")
		warmup  = fs.Int("warmup", 1200, "infinite-temperature warmup iterations")
		seed    = fs.Int64("seed", 1, "random seed")
		quality = fs.Float64("quality", 0.05, "Lam schedule quality (λ)")
		csvPath = fs.String("csv", "", "write the per-iteration trace to this CSV file")
		noplot  = fs.Bool("noplot", false, "suppress the ASCII plots")
		splits  = fs.Bool("splits", false, "enable the context-splitting extension move")

		strategy   = fs.String("strategy", "sa", "sa traces one annealing run (the paper figure); portfolio/bandit print the scheduler arm table instead")
		schedSlice = fs.Int("sched-slice", 0, "UCB budget-slice length of the bandit in driver steps (0 = engine default)")
		maxSteps   = fs.Int("max-steps", 0, "cap driver steps of the composite run (0 = to exhaustion)")
	)
	if err := cli.Parse(fs, args); err != nil {
		return err
	}

	mcfg := apps.DefaultMotionConfig()
	app := apps.MotionDetection(mcfg)
	arch := apps.MotionArch(*nclb, mcfg)

	cfg := core.DefaultConfig()
	cfg.MaxIters = *iters
	cfg.Warmup = *warmup
	cfg.Seed = *seed
	cfg.Quality = *quality
	cfg.Deadline = apps.MotionDeadline
	cfg.EnableCtxSplit = *splits

	if *strategy != "sa" {
		return traceScheduler(stdout, app, arch, cfg, *strategy, search.Overrides{SchedSlice: *schedSlice}, *seed, *maxSteps)
	}

	var its, ctxs, exec []float64
	cfg.Trace = func(p core.TracePoint) {
		its = append(its, float64(p.Iter))
		exec = append(exec, p.Makespan.Millis())
		ctxs = append(ctxs, float64(p.Contexts))
	}

	start := time.Now()
	res, err := core.Explore(app, arch, cfg)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)

	fmt.Fprintf(stdout, "Figure 2 — typical run on %q, FPGA %d CLBs\n\n", app.Name, *nclb)
	fmt.Fprintf(stdout, "  all-software execution time : %v (paper: 76.4 ms)\n", app.TotalSW())
	fmt.Fprintf(stdout, "  initial random solution     : %v (paper: 67.9 ms)\n", res.InitialEval.Makespan)
	fmt.Fprintf(stdout, "  final best execution time   : %v (paper: 18.1 ms)\n", res.BestEval.Makespan)
	fmt.Fprintf(stdout, "  final contexts              : %d (paper: 3)\n", res.BestEval.Contexts)
	fmt.Fprintf(stdout, "  40 ms constraint met        : %v\n", res.MetDeadline)
	fmt.Fprintf(stdout, "  breakdown: sw=%v hw=%v comm=%v reconfig(init)=%v reconfig(dyn)=%v\n",
		res.BestEval.ComputeSW, res.BestEval.ComputeHW, res.BestEval.Comm,
		res.BestEval.InitialReconfig, res.BestEval.DynamicReconfig)
	fmt.Fprintf(stdout, "  iterations=%d accepted=%d rejected=%d infeasible=%d wall=%v (paper: <10 s)\n\n",
		res.Stats.Iters, res.Stats.Accepted, res.Stats.Rejected, res.Stats.Infeasible, elapsed.Round(time.Millisecond))

	fmt.Fprintln(stdout, "move mix (proposed / accepted per kind):")
	mt := report.NewTable("move", "proposed", "accepted", "accept_rate")
	for k := 0; k < core.NumMoveKinds; k++ {
		prop, acc := res.MoveStats.Proposed[k], res.MoveStats.Accepted[k]
		if prop == 0 && acc == 0 {
			continue
		}
		rate := "-"
		if prop > 0 {
			rate = fmt.Sprintf("%.1f%%", 100*float64(acc)/float64(prop))
		}
		mt.AddRow(core.MoveKindName(k), prop, acc, rate)
	}
	if err := mt.Render(stdout); err != nil {
		return err
	}
	fmt.Fprintln(stdout)

	if !*noplot && len(its) > 0 {
		fmt.Fprintln(stdout, "execution time (ms) vs iteration:")
		if err := report.Plot(stdout, 78, 16, report.Series{Name: "execution time (ms)", X: its, Y: exec}); err != nil {
			return err
		}
		fmt.Fprintln(stdout, "\nnumber of contexts vs iteration:")
		if err := report.Plot(stdout, 78, 10, report.Series{Name: "contexts", X: its, Y: ctxs}); err != nil {
			return err
		}
	}

	if *csvPath != "" {
		tb := report.NewTable("iteration", "execution_ms", "contexts")
		for i := range its {
			tb.AddRow(int(its[i]), exec[i], int(ctxs[i]))
		}
		if err := cli.WriteFile(*csvPath, tb.CSV); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "trace written to %s\n", *csvPath)
	}
	return nil
}

// traceScheduler drives one non-sa strategy run through the unified
// engine and reports the composite scheduler's per-arm budget
// accounting (nothing to report for plain single strategies).
func traceScheduler(stdout io.Writer, app *model.App, arch *model.Arch, saCfg core.Config, name string, ov search.Overrides, seed int64, maxSteps int) error {
	scfg := search.DefaultConfig()
	scfg.SA = saCfg
	if err := ov.Apply(&scfg); err != nil {
		return err
	}
	factory, err := search.NewFactory(name, app, arch, scfg)
	if err != nil {
		return err
	}
	start := time.Now()
	out, st, err := search.RunStats(context.Background(), factory, seed, maxSteps)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)

	fmt.Fprintf(stdout, "strategy %s: %q on %q\n\n", name, app.Name, arch.Name)
	fmt.Fprintf(stdout, "  best execution time   : %v (cost %.4f)\n", out.Eval.Makespan, out.Cost)
	fmt.Fprintf(stdout, "  %v constraint met  : %v\n", saCfg.Deadline, out.MetDeadline)
	fmt.Fprintf(stdout, "  driver steps          : %d (%d evaluations, wall %v)\n\n",
		st.Steps, st.Evaluations, elapsed.Round(time.Millisecond))

	if st.Sched == nil {
		fmt.Fprintf(stdout, "strategy %s reports no scheduler telemetry (not a composite)\n", name)
		return nil
	}
	head := fmt.Sprintf("scheduler policy %s", st.Sched.Policy)
	if st.Sched.Slice > 0 {
		head += fmt.Sprintf(", slice %d steps", st.Sched.Slice)
	}
	fmt.Fprintln(stdout, head+" — per-arm budget accounting:")
	tb := report.NewTable("arm", "slices", "steps", "reward", "mean_reward")
	for _, a := range st.Sched.Arms {
		mean := "-"
		if a.Slices > 0 {
			mean = fmt.Sprintf("%.4f", a.Reward/float64(a.Slices))
		}
		tb.AddRow(a.Name, a.Slices, a.Steps, fmt.Sprintf("%.4f", a.Reward), mean)
	}
	if err := tb.Render(stdout); err != nil {
		return err
	}
	if st.Sched.TransferKey != "" {
		fmt.Fprintf(stdout, "\ntransfer donor %s (incumbent cost %.4f)\n", st.Sched.TransferKey, st.Sched.TransferCost)
	}
	return nil
}
