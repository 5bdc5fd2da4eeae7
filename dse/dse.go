package dse

import (
	"context"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/ga"
	"repro/internal/model"
	"repro/internal/objective"
	"repro/internal/pareto"
	"repro/internal/runner"
	"repro/internal/sched"
	"repro/internal/search"
)

// Model types (see the respective internal packages for full details).
type (
	// App is an application: a named acyclic precedence graph of tasks.
	App = model.App
	// Task is one coarse-grain computation with software and hardware
	// execution-time estimates.
	Task = model.Task
	// Impl is one hardware implementation point (CLB count, time).
	Impl = model.Impl
	// Flow is a data dependency between two tasks.
	Flow = model.Flow
	// Arch is a target architecture.
	Arch = model.Arch
	// Processor is a programmable processor.
	Processor = model.Processor
	// RC is a dynamically reconfigurable circuit.
	RC = model.RC
	// ASIC is a dedicated hardware resource.
	ASIC = model.ASIC
	// Bus is the shared communication medium.
	Bus = model.Bus
	// Time is a duration in nanoseconds.
	Time = model.Time
	// Mapping is a complete candidate solution.
	Mapping = sched.Mapping
	// Evaluation summarizes the timing of a mapping.
	Evaluation = sched.Result
	// GanttEntry is one bar of a schedule chart.
	GanttEntry = sched.GanttEntry
)

// Time unit constants.
const (
	Nanosecond  = model.Nanosecond
	Microsecond = model.Microsecond
	Millisecond = model.Millisecond
	Second      = model.Second
)

// ResourceKind discriminates processing-element classes in placements.
type ResourceKind = model.ResourceKind

// Resource kinds.
const (
	KindProcessor = model.KindProcessor
	KindRC        = model.KindRC
	KindASIC      = model.KindASIC
)

// FromMillis converts milliseconds to Time.
func FromMillis(ms float64) Time { return model.FromMillis(ms) }

// FromMicros converts microseconds to Time.
func FromMicros(us float64) Time { return model.FromMicros(us) }

// Options configures an exploration; see core.Config for field docs.
type Options = core.Config

// TracePoint is per-iteration telemetry (Figure 2's data stream).
type TracePoint = core.TracePoint

// Result is the outcome of an exploration.
type Result = core.Result

// DefaultOptions mirrors the paper's Figure 2 run configuration.
func DefaultOptions() Options { return core.DefaultConfig() }

// Explore runs the annealing design-space exploration.
func Explore(app *App, arch *Arch, opts Options) (*Result, error) {
	return core.Explore(app, arch, opts)
}

// RunnerOptions configures a multi-run exploration batch; see
// runner.Options for field docs (Runs, Workers, BaseSeed, OnResult).
type RunnerOptions = runner.Options

// MultiResult is the streamed aggregate of a multi-run batch: per-metric
// summaries (mean/min/max/quantiles), the overall best solution, and the
// cross-run area/time Pareto archive.
type MultiResult = runner.Aggregate

// RunResult is one completed run as delivered to RunnerOptions.OnResult.
type RunResult = runner.RunResult

// ExploreMany runs ropts.Runs independent annealing explorations over a
// worker pool (ropts.Workers; 0 selects NumCPU) with the deterministic seed
// stream opts.Seed′ = ropts.BaseSeed + run. Per-run results and their
// aggregation order are identical for any worker count. It is
// SearchMany("sa", …) with opts as the annealer's parameters and its
// Objective and FrontMetrics as the shared objective settings. Cancelling
// ctx stops in-flight runs within one driver step (64 annealing
// iterations); the partial aggregate of the completed runs is returned
// alongside ctx.Err().
func ExploreMany(ctx context.Context, app *App, arch *Arch, opts Options, ropts RunnerOptions) (*MultiResult, error) {
	sopts := SearchOptions{Objective: opts.Objective, FrontMetrics: opts.FrontMetrics, SA: opts}
	return SearchMany(ctx, "sa", app, arch, sopts, ropts)
}

// ExploreManyGA is ExploreMany for the genetic-algorithm baseline
// (SearchMany("ga", …)); cancellation takes up to one generation.
// deadline only affects the per-run MetDeadline verdicts and the
// aggregate's DeadlineMet count (0 = no constraint).
func ExploreManyGA(ctx context.Context, app *App, arch *Arch, opts GAOptions, deadline Time, ropts RunnerOptions) (*MultiResult, error) {
	sopts := SearchOptions{Objective: opts.Objective, FrontMetrics: opts.FrontMetrics, GA: opts}
	sopts.SA.Deadline = deadline
	return SearchMany(ctx, "ga", app, arch, sopts, ropts)
}

// GAOptions configures the genetic-algorithm baseline.
type GAOptions = ga.Config

// GAResult is the baseline's outcome.
type GAResult = ga.Result

// DefaultGAOptions mirrors the published baseline setting (population 300).
func DefaultGAOptions() GAOptions { return ga.DefaultConfig() }

// ExploreGA runs the genetic-algorithm baseline of Ben Chehida & Auguin.
func ExploreGA(app *App, arch *Arch, opts GAOptions) (*GAResult, error) {
	return ga.Explore(app, arch, opts)
}

// ---------- the multi-objective layer ----------

// Metric names one coordinate of the objective space (makespan, area, ...).
type Metric = objective.Metric

// Objective-space coordinates (see internal/objective for semantics).
const (
	MetricMakespan        = objective.Makespan
	MetricContexts        = objective.Contexts
	MetricHWArea          = objective.HWArea
	MetricResourceCost    = objective.UsedResourceCost
	MetricInitialReconfig = objective.InitialReconfig
	MetricDynamicReconfig = objective.DynamicReconfig
	MetricBusComm         = objective.BusComm
)

// ParseMetric resolves a metric name ("makespan", "area", ...).
func ParseMetric(s string) (Metric, error) { return objective.ParseMetric(s) }

// ObjectiveVector is a solution's full objective vector, indexed by Metric.
type ObjectiveVector = objective.Vector

// Scalarizer folds an objective vector into the scalar search cost:
// per-metric weights plus deadline / area-budget constraint penalties.
type Scalarizer = objective.Scalarizer

// FixedArchObjective is the paper's fixed-architecture cost (makespan plus
// a tie-break on the context count) — the default when Options.Objective is
// nil and ExploreArch is off. Adjust its Weights for multi-objective runs,
// e.g. Weights[MetricHWArea] to trade area against time.
func FixedArchObjective() Scalarizer { return objective.FixedArch() }

// ArchExploreObjective is the paper's architecture-exploration cost
// (instantiated-resource cost plus a deadline-violation penalty) — the
// default when ExploreArch is set.
func ArchExploreObjective(deadline Time, penaltyWeight float64) Scalarizer {
	return objective.ArchExplore(deadline, penaltyWeight)
}

// ObjectiveOf extracts the full objective vector of a mapping.
func ObjectiveOf(app *App, arch *Arch, m *Mapping, ev Evaluation) ObjectiveVector {
	return objective.Eval(app, arch, m, ev)
}

// Front is an N-dimensional Pareto archive; FrontPoint one of its entries.
type (
	Front      = pareto.NArchive
	FrontPoint = pareto.NPoint
)

// ---------- the unified strategy engine ----------

// Strategy is the unified search interface (Init/Step/Best/Stats) every
// algorithm of the engine runs behind: "sa" (the paper's annealer), "ga"
// (the genetic baseline), "list" (deterministic list-scheduling seeding),
// "brute" (exhaustive enumeration on small instances) and "portfolio"
// (racing several of them under one budget).
type Strategy = search.Strategy

// SearchOutcome is the best solution a strategy found, with its objective
// vector, scalarized cost, and optional Pareto front.
type SearchOutcome = search.Outcome

// SearchStats is cross-strategy run telemetry.
type SearchStats = search.Stats

// SearchOptions bundles the per-strategy parameters plus the shared
// objective settings applied to every strategy uniformly.
type SearchOptions = search.Config

// DefaultSearchOptions mirrors the paper-faithful defaults of every member.
func DefaultSearchOptions() SearchOptions { return search.DefaultConfig() }

// StrategyNames lists the registered strategy names.
func StrategyNames() []string { return search.Names() }

// NewStrategy builds one uninitialized instance of the named strategy.
// Callers drive it themselves: Init(seed), Step until false, Best.
func NewStrategy(name string, app *App, arch *Arch, opts SearchOptions) (Strategy, error) {
	f, err := search.NewFactory(name, app, arch, opts)
	if err != nil {
		return nil, err
	}
	return f.New()
}

// Search runs the named strategy to exhaustion under ctx and returns the
// best solution found. A cancelled search returns its best-so-far together
// with ctx.Err().
func Search(ctx context.Context, name string, app *App, arch *Arch, opts SearchOptions, seed int64) (*SearchOutcome, error) {
	f, err := search.NewFactory(name, app, arch, opts)
	if err != nil {
		return nil, err
	}
	return search.Run(ctx, f, seed, 0)
}

// SearchMany fans ropts.Runs independent runs of the named strategy out
// over the multi-run engine — the strategy-generic ExploreMany. Per-run
// fronts (when opts.FrontMetrics is set) are merged, in run order, into
// MultiResult.Front.
func SearchMany(ctx context.Context, name string, app *App, arch *Arch, opts SearchOptions, ropts RunnerOptions) (*MultiResult, error) {
	f, err := search.NewFactory(name, app, arch, opts)
	if err != nil {
		return nil, err
	}
	return runner.Run(ctx, app, ropts, runner.Strategy(f))
}

// Evaluate times a mapping against an application and architecture.
func Evaluate(app *App, arch *Arch, m *Mapping) (Evaluation, error) {
	if err := sched.CheckMapping(app, arch, m); err != nil {
		return Evaluation{}, err
	}
	return sched.NewEvaluator(app, arch).Evaluate(m)
}

// Gantt extracts the schedule chart of a mapping.
func Gantt(app *App, arch *Arch, m *Mapping) ([]GanttEntry, error) {
	if err := sched.CheckMapping(app, arch, m); err != nil {
		return nil, err
	}
	e := sched.NewEvaluator(app, arch)
	if _, err := e.Evaluate(m); err != nil {
		return nil, err
	}
	return sched.Gantt(e, m), nil
}

// MotionDetection builds the synthetic 28-task motion-detection benchmark
// (the paper's Section 5 workload; see DESIGN.md for the substitution of
// the proprietary EPICURE estimates).
func MotionDetection() *App { return apps.MotionDetection(apps.DefaultMotionConfig()) }

// MotionArch builds the ARM922+Virtex-E reference architecture with the
// given FPGA capacity in CLBs (tR = 22.5 µs/CLB as in the paper).
func MotionArch(nclb int) *Arch { return apps.MotionArch(nclb, apps.DefaultMotionConfig()) }

// MotionDeadline is the benchmark's 40 ms real-time constraint.
const MotionDeadline = Time(apps.MotionDeadline)

// LoadApp reads a validated application from a JSON file.
func LoadApp(path string) (*App, error) { return model.LoadApp(path) }

// LoadArch reads a validated architecture from a JSON file.
func LoadArch(path string) (*Arch, error) { return model.LoadArch(path) }
