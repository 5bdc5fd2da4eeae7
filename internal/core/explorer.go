package core

import (
	"fmt"
	"math/rand"

	"repro/internal/anneal"
	"repro/internal/graph"
	"repro/internal/model"
	"repro/internal/objective"
	"repro/internal/pareto"
	"repro/internal/sched"
)

// Explorer is the annealing problem: it owns the current mapping, its
// evaluation, and the machinery to propose, apply and revert moves.
type Explorer struct {
	app  *model.App
	arch *model.Arch
	cfg  Config

	// eval is the full-rebuild reference evaluator, constructed lazily via
	// fullEval (in incremental mode it is needed only for the Paranoid
	// cross-check). inc is the delta-based evaluator, nil in EvalFull mode.
	eval *sched.Evaluator
	inc  *sched.IncEvaluator
	// precReach is the transitive closure of the (static) precedence
	// graph, used as the O(1) legality pre-check of Section 4.3 before the
	// full cycle detection performed by evaluation.
	precReach *graph.Closure

	// topoPos[t] is task t's rank in a fixed topological order of the
	// precedence graph, used to keep context splits acyclic.
	topoPos []int

	cur     *sched.Mapping
	curRes  sched.Result
	curCost float64

	// scal is the run's resolved cost function; needsMap caches whether it
	// reads mapping-derived metrics (skipped in the hot loop otherwise).
	scal     objective.Scalarizer
	needsMap bool

	// front is the in-run Pareto archive (nil when disabled); frontCoords
	// is its reusable projection buffer and frontTick the offer sequence.
	front       *pareto.NArchive
	frontCoords []float64
	frontTick   int

	// run is the in-flight stepped exploration, nil outside Start/Step.
	run *runState

	// journal records per-move undo ops; cs records the layers the move in
	// flight invalidated. Together they make both rejection and the
	// incremental evaluator's resynchronization O(move delta).
	journal journal
	cs      *sched.ChangeSet

	best    *sched.Mapping
	bestRes sched.Result

	selector *anneal.AdaptiveSelector
	mv       move
	rng      *rand.Rand // move-parameter randomness (separate from the annealer's)

	// Pool-rebuild scratch buffers (allocation-free move drawing).
	scratchB, scratchC []int

	// stateTick versions the current mapping: it bumps on every mutation
	// and is restored on revert, so the prefetched candidate pools (which
	// cache the Propose scan lists) stay valid across the long runs of
	// rejected moves that dominate a cooled-down anneal.
	stateTick uint64
	pools     candidatePools

	// kindProposed and kindAccepted tally per-kind selector draws and
	// consumed acceptances across the run (Result.MoveStats).
	kindProposed [numMoveKinds]int64
	kindAccepted [numMoveKinds]int64

	// Speculative batch state (Config.Batch > 1; see batch.go): spec holds
	// the current round's drawn candidates, specApplied records that the
	// candidate Candidate last scored is still applied, and speculating
	// suppresses its front offer until the consumer accepts it.
	spec        []specCand
	specApplied bool
	speculating bool
}

// candidatePools caches the mapping scans of the proposal helpers. Each
// pool carries the stateTick it was built at and is rebuilt lazily on first
// use after the mapping changed; the rebuild produces exactly the list the
// inline scan used to, so draws consume the same randomness and the search
// trajectory is bit-identical to the unpooled code.
type candidatePools struct {
	procs2Tick  uint64
	procs2      []int // processors with ≥2 ordered tasks (reorder)
	singlesTick uint64
	singles     []int // lone tasks of singleton resources (removeRes)
	emptyTick   uint64
	empty       []int // encoded unused resource slots (createRes)
	rcs2Tick    uint64
	rcs2        []int // RCs with ≥2 contexts (ctxSwap)
	splitTick   uint64
	split       []int // encoded splittable (rc,ctx) pairs (ctxSplit)
	splitMaxCtx int
	emptyRC     int // first RC with no contexts, -1 = none (ctxSplit seed)
}

// Prepared caches everything about an (application, architecture) pair that
// is independent of the run configuration: validation, the transitive
// closure of the precedence graph, and the fixed topological order. The
// strategy factory (internal/search) prepares once per batch and then
// spawns one cheap Explorer per seed, hoisting the O(V²) closure
// construction out of the per-run hot loop. A Prepared is immutable after
// construction and safe for concurrent use by multiple explorers.
type Prepared struct {
	app       *model.App
	arch      *model.Arch
	precReach *graph.Closure
	topoPos   []int
}

// Prepare validates the inputs and precomputes the run-independent state.
func Prepare(app *model.App, arch *model.Arch) (*Prepared, error) {
	if err := app.Validate(); err != nil {
		return nil, err
	}
	if err := arch.Validate(); err != nil {
		return nil, err
	}
	if len(arch.Processors) == 0 {
		return nil, fmt.Errorf("core: the explorer needs at least one processor")
	}
	prec, err := graph.NewClosure(app.Precedence())
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	order, err := graph.Topo(app.Precedence())
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	topoPos := make([]int, app.N())
	for i, t := range order {
		topoPos[t] = i
	}
	return &Prepared{app: app, arch: arch, precReach: prec, topoPos: topoPos}, nil
}

// App returns the prepared application.
func (p *Prepared) App() *model.App { return p.app }

// Arch returns the prepared architecture.
func (p *Prepared) Arch() *model.Arch { return p.arch }

// New builds an explorer over the prepared pair with a random initial
// solution (the paper's initialization: a random number of tasks moved one
// by one to the reconfigurable circuit).
func (p *Prepared) New(cfg Config) (*Explorer, error) {
	if cfg.Quality <= 0 {
		cfg.Quality = 0.01
	}
	if cfg.Warmup <= 0 {
		cfg.Warmup = 1200
	}
	if cfg.MaxIters <= 0 {
		cfg.MaxIters = 5000
	}
	e := &Explorer{
		app:       p.app,
		arch:      p.arch,
		cfg:       cfg,
		precReach: p.precReach,
		topoPos:   p.topoPos,
		cs:        sched.NewChangeSet(p.app.N(), len(p.arch.Processors), len(p.arch.RCs)),
		best:      &sched.Mapping{},
		rng:       rand.New(rand.NewSource(cfg.Seed ^ 0x5eed)),
	}
	e.scal = cfg.scalarizer()
	e.needsMap = e.scal.NeedsMapping()
	if len(cfg.FrontMetrics) > 0 {
		for _, m := range cfg.FrontMetrics {
			if m < 0 || m >= objective.NumMetrics {
				return nil, fmt.Errorf("core: invalid front metric %d", int(m))
			}
		}
		e.front = pareto.NewNArchive(len(cfg.FrontMetrics))
		e.frontCoords = make([]float64, len(cfg.FrontMetrics))
	}
	if cfg.EvalMode.resolve(p.app, p.arch) == EvalIncremental {
		if cfg.Recycler != nil {
			e.inc = cfg.Recycler.GetIncEvaluator()
		}
		if e.inc == nil {
			inc, err := sched.NewIncEvaluator(p.app, p.arch)
			if err != nil {
				return nil, err
			}
			e.inc = inc
		}
	}
	e.selector = anneal.NewAdaptiveSelector(moveWeights(cfg.ExploreArch))
	e.mv.e = e

	m, err := sched.RandomMapping(p.app, p.arch, e.rng)
	if err != nil {
		return nil, err
	}
	if err := e.reset(m); err != nil {
		return nil, err
	}
	return e, nil
}

// New validates the inputs and builds an explorer with a random initial
// solution. Callers running many seeds over the same pair should Prepare
// once instead.
func New(app *model.App, arch *model.Arch, cfg Config) (*Explorer, error) {
	p, err := Prepare(app, arch)
	if err != nil {
		return nil, err
	}
	return p.New(cfg)
}

// fullEval returns the full-rebuild reference evaluator, constructing it on
// first use: in incremental mode only Paranoid runs ever need it, and the
// multi-run drivers build one Explorer per seed.
func (e *Explorer) fullEval() *sched.Evaluator {
	if e.eval == nil {
		e.eval = sched.NewEvaluator(e.app, e.arch)
	}
	return e.eval
}

// reset installs a mapping as the current solution.
func (e *Explorer) reset(m *sched.Mapping) error {
	if err := sched.CheckMapping(e.app, e.arch, m); err != nil {
		return err
	}
	var (
		res sched.Result
		err error
	)
	if e.inc != nil {
		res, err = e.inc.Install(m)
	} else {
		res, err = e.fullEval().Evaluate(m)
	}
	if err != nil {
		return err
	}
	e.cur = m
	e.curRes = res
	e.curCost = e.costOf(res)
	e.journal.reset()
	e.cs.Reset()
	e.stateTick++
	e.offerFront()
	return nil
}

// SetSolution installs m as the explorer's current solution — a warm
// start, replacing the random initial mapping before Run (list-scheduling
// seeds, portfolio hand-offs). The mapping is validated and evaluated; the
// explorer takes ownership of m.
func (e *Explorer) SetSolution(m *sched.Mapping) error { return e.reset(m) }

// costOf converts an evaluation of the current mapping into the scalar
// search cost through the shared objective layer.
func (e *Explorer) costOf(res sched.Result) float64 {
	v := objective.FromResult(res)
	if e.needsMap {
		objective.CompleteMapping(e.app, e.arch, e.cur, &v)
	}
	return e.scal.Cost(res, v)
}

// offerFront projects the current solution onto the configured front
// metrics and offers it to the in-run archive. Only the configured
// coordinates are computed — this runs once per feasible proposal, so it
// must not drag mapping scans for metrics nobody archives into the hot
// loop.
func (e *Explorer) offerFront() {
	if e.front == nil || e.speculating {
		// A speculated candidate is offered when it is accepted
		// (ConsumeCandidate), never when it is merely scored.
		return
	}
	objective.Project(e.cfg.FrontMetrics, e.app, e.arch, e.cur, e.curRes, e.frontCoords)
	e.front.Add(e.frontCoords, e.frontTick)
	e.frontTick++
}

// Current returns the current mapping and its evaluation (read-only).
func (e *Explorer) Current() (*sched.Mapping, sched.Result) { return e.cur, e.curRes }

// Cost implements anneal.Problem.
func (e *Explorer) Cost() float64 { return e.curCost }

// KeepBest implements anneal.BestKeeper: snapshot the current solution.
func (e *Explorer) KeepBest() {
	e.cur.CopyInto(e.best)
	e.bestRes = e.curRes
}

// Propose implements anneal.Problem: draw a move kind from the selector and
// instantiate its parameters. A nil return means this draw found no
// applicable move (e.g. m1 with no processor running two tasks).
func (e *Explorer) Propose(rng *rand.Rand) anneal.Move {
	kind := e.selector.Pick(rng)
	e.kindProposed[kind]++
	ok := false
	switch kind {
	case MoveReorder:
		ok = e.proposeReorder(rng)
	case MoveReassign:
		ok = e.proposeReassign(rng)
	case MoveRemoveRes:
		ok = e.proposeRemoveRes(rng)
	case MoveCreateRes:
		ok = e.proposeCreateRes(rng)
	case MoveImpl:
		ok = e.proposeImpl(rng)
	case MoveCtxSwap:
		ok = e.proposeCtxSwap(rng)
	case MoveCtxSplit:
		ok = e.proposeCtxSplit(rng)
	}
	if !ok {
		// A kind that cannot even produce a candidate in the current state
		// is a wasted draw: teach the selector so generation shifts toward
		// productive kinds.
		e.selector.Observe(kind, false)
		return nil
	}
	e.mv.kind = kind
	return &e.mv
}

// runState is the in-flight state of a stepped exploration: the current
// annealing phase and the statistics accumulated across phases.
type runState struct {
	runner  *anneal.Runner
	phase   int // 0 = adaptive schedule, 1 = greedy quench, 2 = done
	initial sched.Result
	st      anneal.Stats
}

// Start begins a stepped exploration. Stepping a run to exhaustion with
// Step and reading it back with Finish is bit-identical to Run.
func (e *Explorer) Start() {
	opt := anneal.Options{
		Schedule: anneal.NewLam(e.cfg.Quality, e.cfg.Warmup),
		MaxIters: e.cfg.MaxIters,
		Seed:     e.cfg.Seed,
		Batch:    e.cfg.Batch,
	}
	opt.Trace = func(o anneal.Observation) {
		if o.MoveKind >= 0 {
			e.selector.Observe(o.MoveKind, o.Accepted)
			if o.Accepted {
				e.kindAccepted[o.MoveKind]++
			}
		}
		if e.cfg.Trace != nil {
			e.cfg.Trace(TracePoint{
				Iter:        o.Iter,
				Cost:        o.Cost,
				Makespan:    e.curRes.Makespan,
				BestCost:    o.Best,
				Contexts:    e.cur.TotalContexts(),
				Temperature: o.Temperature,
				Accepted:    o.Accepted,
				MoveKind:    o.MoveKind,
			})
		}
	}
	e.run = &runState{runner: anneal.NewRunner(e, opt), initial: e.curRes}
}

// Step advances a started exploration by up to n annealing iterations and
// reports whether the run can continue. Phase transitions (schedule freeze
// into the final quench) happen inside Step; the returned error is fatal.
func (e *Explorer) Step(n int) (bool, error) {
	r := e.run
	if r == nil {
		return false, fmt.Errorf("core: Step before Start")
	}
	switch r.phase {
	case 0:
		if r.runner.Step(n) {
			return true, nil
		}
		r.st = r.runner.Stats()
		if e.cfg.QuenchIters <= 0 {
			r.phase = 2
			return false, nil
		}
		// Final quench: restart from the best annealed solution and take
		// only improving moves until the budget runs out. The quench run
		// carries no selector feedback and no user trace (matching the
		// historical single-shot Run); the front archive still observes
		// its evaluations through move.Apply.
		if err := e.reset(e.best.Clone()); err != nil {
			r.phase = 2
			return false, fmt.Errorf("core: restoring best solution: %w", err)
		}
		qopt := anneal.Options{
			Schedule: anneal.Greedy{},
			MaxIters: e.cfg.QuenchIters,
			Seed:     e.cfg.Seed ^ 0x9e3779b9,
			Batch:    e.cfg.Batch,
			// Tally-only trace: the quench still runs without selector
			// feedback and without the user trace (matching the historical
			// single-shot Run), but its acceptances do count in MoveStats.
			Trace: func(o anneal.Observation) {
				if o.MoveKind >= 0 && o.Accepted {
					e.kindAccepted[o.MoveKind]++
				}
			},
		}
		r.runner = anneal.NewRunner(e, qopt)
		r.phase = 1
		return true, nil
	case 1:
		if r.runner.Step(n) {
			return true, nil
		}
		mergeStats(&r.st, r.runner.Stats())
		r.phase = 2
		return false, nil
	default:
		return false, nil
	}
}

// mergeStats folds one phase's annealer statistics into a cross-phase
// accumulator.
func mergeStats(st *anneal.Stats, cur anneal.Stats) {
	st.Iters += cur.Iters
	st.Accepted += cur.Accepted
	st.Rejected += cur.Rejected
	st.Infeasible += cur.Infeasible
	st.Speculated += cur.Speculated
	st.Discarded += cur.Discarded
	if cur.BestCost < st.BestCost {
		st.BestCost = cur.BestCost
	}
	st.FinalCost = cur.FinalCost
}

// StatsSnapshot returns the run statistics accumulated so far — the phases
// merged on the fly for an unfinished run — without cloning the best
// solution. It is the cheap per-step progress probe behind the unified
// driver's early-stop monitor; Finish returns the same numbers.
func (e *Explorer) StatsSnapshot() anneal.Stats {
	r := e.run
	if r == nil {
		return anneal.Stats{BestCost: e.curCost, FinalCost: e.curCost}
	}
	st := r.st
	if r.phase < 2 {
		cur := r.runner.Stats()
		if r.phase == 0 {
			st = cur
		} else {
			mergeStats(&st, cur)
		}
	}
	return st
}

// MoveStatsSnapshot returns the per-kind proposal/acceptance counters
// accumulated so far.
func (e *Explorer) MoveStatsSnapshot() MoveStats {
	return MoveStats{Proposed: e.kindProposed, Accepted: e.kindAccepted}
}

// Finish closes a stepped exploration and returns the best solution found
// so far (callable mid-run for a snapshot of an interrupted search; before
// Start it reports the initial solution).
func (e *Explorer) Finish() *Result {
	r := e.run
	if r == nil {
		e.KeepBest()
		res := &Result{
			Best:        e.best.Clone(),
			BestEval:    e.bestRes,
			InitialEval: e.curRes,
			MoveStats:   e.MoveStatsSnapshot(),
			MetDeadline: e.cfg.Deadline <= 0 || e.bestRes.Makespan <= e.cfg.Deadline,
			Front:       e.front,
		}
		e.releaseEvaluators()
		return res
	}
	res := &Result{
		Best:        e.best.Clone(),
		BestEval:    e.bestRes,
		InitialEval: r.initial,
		Stats:       e.StatsSnapshot(),
		MoveStats:   e.MoveStatsSnapshot(),
		MetDeadline: e.cfg.Deadline <= 0 || e.bestRes.Makespan <= e.cfg.Deadline,
		Front:       e.front,
	}
	e.releaseEvaluators()
	return res
}

// releaseEvaluators hands the run's incremental evaluator back to the
// configured recycler so the next run over the same models can adopt it
// instead of reallocating. Idempotent: Finish may be called more than
// once, the evaluator is released exactly once.
func (e *Explorer) releaseEvaluators() {
	if rec := e.cfg.Recycler; rec != nil && e.inc != nil {
		rec.PutIncEvaluator(e.inc)
		e.inc = nil
	}
}

// Run executes the exploration and returns the best solution found: Start
// stepped to exhaustion, then Finish.
func (e *Explorer) Run() (*Result, error) {
	e.Start()
	for {
		more, err := e.Step(1 << 20)
		if err != nil {
			return nil, err
		}
		if !more {
			break
		}
	}
	return e.Finish(), nil
}

// Explore is the one-call convenience API: build an explorer and run it.
func Explore(app *model.App, arch *model.Arch, cfg Config) (*Result, error) {
	e, err := New(app, arch, cfg)
	if err != nil {
		return nil, err
	}
	return e.Run()
}
