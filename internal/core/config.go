package core

import (
	"repro/internal/anneal"
	"repro/internal/model"
	"repro/internal/objective"
	"repro/internal/pareto"
	"repro/internal/sched"
)

// Move kinds, indexing the generation-probability vectors. The names follow
// Section 4.2 of the paper.
const (
	// MoveReorder is m1: change the total execution order on a processor.
	MoveReorder = iota
	// MoveReassign is m2: switch the source task to the destination task's
	// resource (a processor, an RC context — spawning a context when the
	// capacity overflows — or an ASIC).
	MoveReassign
	// MoveRemoveRes is m3: delete a resource holding a single task,
	// reassigning that task (architecture exploration only).
	MoveRemoveRes
	// MoveCreateRes is m4: instantiate an unused resource and move a task
	// onto it (architecture exploration only).
	MoveCreateRes
	// MoveImpl re-selects the hardware implementation point of a hardware
	// task among its area/time Pareto set.
	MoveImpl
	// MoveCtxSwap exchanges two adjacent contexts in an RC's sequential
	// context order Lc.
	MoveCtxSwap
	// MoveCtxSplit divides a context in two (temporal-partitioning move):
	// the paper's capacity-overflow rule only ever creates contexts on
	// small devices, so the explorer also needs an explicit splitting move
	// to discover multi-context solutions on large ones — splitting lets
	// the first context finish configuring (and start computing) earlier.
	// On an RC with no context yet, the move seeds the first context with
	// a hardware-capable task.
	MoveCtxSplit
	numMoveKinds
)

// NumMoveKinds is the number of move kinds, for sizing per-kind telemetry.
const NumMoveKinds = numMoveKinds

// moveKindNames are the stable external names of the move kinds, used by
// trace printers and benchmark rows.
var moveKindNames = [numMoveKinds]string{
	MoveReorder:   "reorder",
	MoveReassign:  "reassign",
	MoveRemoveRes: "removeRes",
	MoveCreateRes: "createRes",
	MoveImpl:      "impl",
	MoveCtxSwap:   "ctxSwap",
	MoveCtxSplit:  "ctxSplit",
}

// MoveKindName returns the stable name of a move kind ("?" out of range).
func MoveKindName(kind int) string {
	if kind < 0 || kind >= numMoveKinds {
		return "?"
	}
	return moveKindNames[kind]
}

// MoveStats counts per-kind move proposals and acceptances across a run —
// a comparable value type (fixed-size arrays), so snapshots diff with ==.
// Proposed counts every selector draw of the kind, including draws that
// found no applicable candidate; Accepted counts consumed acceptances.
type MoveStats struct {
	Proposed [numMoveKinds]int64
	Accepted [numMoveKinds]int64
}

// EvalMode selects how the annealing loop re-evaluates a mutated mapping.
// Both concrete paths produce bit-identical results (enforced by the
// equivalence tests and the fuzz harness); they differ only in cost shape.
type EvalMode int

const (
	// EvalAuto (the default) picks per instance: the delta-based path when
	// the search graph is large enough that patching it beats rebuilding
	// it — many tasks, and many schedulable resources spreading the
	// sequentialization chains — and the full rebuild otherwise. See
	// DESIGN.md §3.4 for the measurements behind the heuristic.
	EvalAuto EvalMode = iota
	// EvalFull rebuilds the whole search graph from scratch on every move
	// (sched.Evaluator) — the reference path. Its CSR-based evaluation is
	// extremely cache-friendly, which makes it the fastest choice on
	// small instances where a move perturbs most of the schedule anyway.
	EvalFull
	// EvalIncremental patches persistent search graphs move by move,
	// diffing the dynamic layers and the bus contention chain and
	// recomputing longest paths from the first node a move changed
	// (sched.IncEvaluator). It wins when the graph outgrows the typical
	// move — larger task sets spread over several processors and RCs.
	EvalIncremental
)

// resolve maps EvalAuto to a concrete path for the given instance.
func (m EvalMode) resolve(app *model.App, arch *model.Arch) EvalMode {
	if m != EvalAuto {
		return m
	}
	resources := len(arch.Processors) + len(arch.RCs)
	if resources >= 3 && app.N() >= 48 {
		return EvalIncremental
	}
	return EvalFull
}

// Config parameterizes an exploration run. The zero value is not usable;
// call DefaultConfig. The run always anneals with the Lam schedule and the
// adaptive move selector, then quenches greedily; it ends when the
// schedule freezes or MaxIters runs out. To interrupt it earlier, step it
// (Explorer.Start/Step) and stop stepping — the search driver does exactly
// that when its context is cancelled.
type Config struct {
	// Quality is the λ knob of the adaptive schedule: smaller cools more
	// slowly and finds better solutions at the cost of more iterations.
	Quality float64
	// Warmup is the number of initial moves performed at infinite
	// temperature (1200 in the paper's Figure 2 run).
	Warmup int
	// MaxIters bounds the run length (5000 in the Figure 2 run).
	MaxIters int
	// Seed makes runs reproducible.
	Seed int64
	// Deadline is the real-time constraint; in fixed-architecture mode it
	// is reported but the pure execution time is still the cost (the
	// paper: "the criterion to be optimized becomes here the execution
	// time"). In architecture exploration mode exceeding it is penalized.
	Deadline model.Time
	// ExploreArch enables moves m3/m4. When false — the paper's Section 5
	// setting — "the probability of generating a 0 is set to 0" and the
	// architecture stays fixed.
	ExploreArch bool
	// PenaltyWeight converts deadline violation (in milliseconds) into
	// cost units during architecture exploration.
	PenaltyWeight float64
	// QuenchIters bounds the zero-temperature descent performed from the
	// best annealed solution after the adaptive schedule freezes (the
	// "frozen configuration" of Figure 2). Zero disables the quench.
	QuenchIters int
	// EnableCtxSplit adds an explicit context-splitting move. The paper
	// creates contexts only through capacity overflow (and so do the
	// defaults here — this is what shapes Figure 3); the splitting move is
	// an extension that lets large devices discover pipelined
	// multi-context solutions too. Seeding the first context of an empty
	// RC is always available regardless of this flag.
	EnableCtxSplit bool
	// Trace, when non-nil, receives one point per iteration (Figure 2's
	// data stream).
	Trace func(TracePoint)
	// EvalMode selects the evaluation path of the hot loop; the zero value
	// (EvalAuto) picks per instance. Both concrete paths produce
	// bit-identical results, so the choice affects only speed.
	EvalMode EvalMode
	// Paranoid re-validates every mapping mutation against
	// sched.CheckMapping — and, in incremental mode, cross-checks every
	// incremental evaluation against a full rebuild; every cut move and
	// every refused placement is confirmed by a full rebuild too. Used by
	// the test suite to catch state corruption, far too slow for
	// production runs.
	Paranoid bool
	// Objective overrides the scalarization of the multi-criteria cost.
	// nil selects the paper's cost for the mode — objective.FixedArch()
	// when ExploreArch is false, objective.ArchExplore(Deadline,
	// PenaltyWeight) otherwise — reproducing the historical behavior
	// bit-for-bit.
	Objective *objective.Scalarizer
	// FrontMetrics, when non-empty, enables the in-run Pareto archive: the
	// initial solution and every accepted solution are projected onto
	// these objective coordinates and offered to an N-dimensional archive
	// returned in Result.Front. Leave nil to disable (the hot loop then
	// never computes mapping-derived metrics).
	FrontMetrics []objective.Metric
	// Batch, when >1, enables speculative batched move evaluation: each
	// annealing round draws Batch independent candidates against the
	// current solution and consumes them in canonical order, scoring each
	// only when the consumer reaches it (see batch.go). Values <=1 run the
	// exact serial loop (bit-identical to earlier releases). A batched run
	// follows a different — equally valid — trajectory than the serial run
	// with the same seed, but is itself fully deterministic for a given
	// (Seed, Batch).
	Batch int
	// Recycler, when non-nil, recycles the large instance-sized evaluator
	// state across runs instead of reallocating it per run (the multi-run
	// drivers pool it with a sync.Pool). Install rebuilds every dynamic
	// layer when an explorer adopts an evaluator — the same wholesale
	// resynchronization quench restarts already perform — so a recycled
	// run is bit-identical to a fresh one. Pure throughput: excluded from
	// fingerprints and cache keys, and never makes a run uncacheable.
	Recycler Recycler
}

// Recycler recycles incremental evaluators across exploration runs over
// one (app, arch) pair. Get may return nil (the explorer then builds a
// fresh evaluator); Put hands back an evaluator the finished run no
// longer touches. Implementations must be safe for concurrent use, and
// must never serve an evaluator built over different models.
type Recycler interface {
	GetIncEvaluator() *sched.IncEvaluator
	PutIncEvaluator(*sched.IncEvaluator)
}

// DefaultConfig mirrors the paper's Figure 2 run: 1200 warmup iterations,
// 5000 iterations total, fixed architecture.
func DefaultConfig() Config {
	return Config{
		Quality:        0.05,
		Warmup:         1200,
		MaxIters:       5000,
		Seed:           1,
		Deadline:       0,
		PenaltyWeight:  100,
		QuenchIters:    4000,
		EnableCtxSplit: false,
	}
}

// TracePoint is one iteration of telemetry.
type TracePoint struct {
	Iter        int
	Cost        float64
	Makespan    model.Time
	BestCost    float64
	Contexts    int
	Temperature float64
	Accepted    bool
	MoveKind    int
}

// Result is the outcome of an exploration run.
type Result struct {
	// Best is the best mapping found.
	Best *sched.Mapping
	// BestEval is its evaluation.
	BestEval sched.Result
	// InitialEval is the evaluation of the random initial solution.
	InitialEval sched.Result
	// Stats carries the annealer's run statistics.
	Stats anneal.Stats
	// MoveStats counts per-kind proposals and acceptances across the run.
	MoveStats MoveStats
	// MetDeadline reports whether the best solution satisfies the
	// configured deadline (vacuously true when no deadline is set).
	MetDeadline bool
	// Front is the in-run Pareto archive over Config.FrontMetrics (nil
	// when disabled). Point IDs are offer sequence numbers within the run.
	Front *pareto.NArchive
}

// LaneStats is the telemetry of the retired lane batch kernel, which
// scored speculated candidates in shared multi-lane sweeps. Nothing
// records it any more — batched rounds are scored in place (batch.go) —
// so every field is always zero. The type survives because search.Stats,
// runner.Outcome, runner.Aggregate and the outcome codec still carry it
// and perfbench reads it.
type LaneStats struct {
	Rounds     int64
	Lanes      int64
	SweepNodes int64
	LaneRelax  int64
}

// moveWeights returns the base generation-probability vector. In
// fixed-architecture mode m3/m4 have probability zero, matching the paper.
func moveWeights(exploreArch bool) []float64 {
	w := make([]float64, numMoveKinds)
	w[MoveReorder] = 0.20
	w[MoveReassign] = 0.45
	w[MoveImpl] = 0.15
	w[MoveCtxSwap] = 0.10
	w[MoveCtxSplit] = 0.10
	if exploreArch {
		w[MoveRemoveRes] = 0.05
		w[MoveCreateRes] = 0.05
	}
	return w
}

// scalarizer resolves the run's cost function: an explicit override, or
// the paper's default for the mode.
func (c *Config) scalarizer() objective.Scalarizer {
	if c.Objective != nil {
		return *c.Objective
	}
	if c.ExploreArch {
		return objective.ArchExplore(c.Deadline, c.PenaltyWeight)
	}
	return objective.FixedArch()
}
