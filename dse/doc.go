// Package dse is the public API of the design-space explorer for
// dynamically reconfigurable architectures — a reproduction of Miramond &
// Delosme, "Design Space Exploration for Dynamically Reconfigurable
// Architectures" (DATE 2005).
//
// The explorer maps an application, described as an acyclic precedence
// graph of coarse-grain tasks, onto a heterogeneous architecture built from
// programmable processors and dynamically reconfigurable circuits. It
// simultaneously searches the HW/SW spatial partitioning, the temporal
// partitioning of hardware tasks into reconfiguration contexts, the
// software schedules, and the per-task hardware implementation choice,
// using simulated annealing with the adaptive Lam–Delosme cooling schedule.
//
// Quick start:
//
//	app := dse.MotionDetection()
//	arch := dse.MotionArch(2000)
//	res, err := dse.Explore(app, arch, dse.DefaultOptions())
//	if err != nil { ... }
//	fmt.Println(res.BestEval.Makespan) // e.g. "33.12ms"
//
// Multi-run exploration (the paper's protocol averages ~100 independent
// runs per configuration) goes through ExploreMany, which fans the runs out
// over a worker pool with one deterministic seed per run — the aggregate is
// identical whatever the worker count:
//
//	agg, err := dse.ExploreMany(ctx, app, arch, dse.DefaultOptions(),
//		dse.RunnerOptions{Runs: 100, BaseSeed: 0}) // Workers: 0 → NumCPU
//	if err != nil { ... }
//	fmt.Println(agg.MakespanMS.Mean(), agg.MakespanMS.Quantile(0.95))
//	fmt.Println(agg.BestEval.Makespan, "from run", agg.BestRun)
//
// The benchmark scenario corpus (Scenarios, LoadScenario) provides named,
// reproducible instances spanning the paper's published workload and five
// synthetic families; any strategy of the unified engine ("sa", "ga",
// "list", "brute", "portfolio") runs on them through Search/SearchMany:
//
//	app, arch, opts, err := dse.LoadScenario("layered-medium")
//	if err != nil { ... }
//	out, err := dse.Search(ctx, "portfolio", app, arch, opts, 1)
//
// Explorations can also be served remotely: cmd/dsed runs the engine as
// a long-lived HTTP job service with a memoized result cache
// (every run is a pure function of its (app, arch, objective, strategy,
// seed, budget) key), and Client talks to it — submit asynchronous jobs,
// stream per-run progress, cancel, or run synchronously:
//
//	c := dse.NewClient("http://localhost:8080")
//	st, err := c.SubmitJob(ctx, dse.JobSpec{Scenario: "layered-160", Runs: 8})
//	if err != nil { ... }
//	st, err = c.WaitJob(ctx, st.ID, 0)
//	fmt.Println(st.Summary.BestCost, st.Summary.CacheHits)
package dse
