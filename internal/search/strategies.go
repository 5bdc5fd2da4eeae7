package search

import (
	"math"
	"sort"

	"repro/internal/combi"
	"repro/internal/core"
	"repro/internal/ga"
	"repro/internal/listsched"
	"repro/internal/model"
	"repro/internal/objective"
	"repro/internal/pareto"
	"repro/internal/sched"
)

// ---------- simulated annealing (the paper's explorer) ----------

// saStrategy steps the core explorer in chunks of annealing iterations.
// With a transfer warm start installed, every Init replaces the random
// initial mapping with a clone of the donor incumbent (the explorer takes
// ownership), so the annealer searches downhill from the donor instead of
// from scratch.
type saStrategy struct {
	prep    *core.Prepared
	cfg     core.Config
	chunk   int
	warm    *Outcome // donor incumbent under this run's objective (nil = cold)
	warmKey string   // donor memo key, for telemetry

	e     *core.Explorer
	steps int
	done  bool
}

func (s *saStrategy) Name() string { return "sa" }

func (s *saStrategy) Init(seed int64) error {
	cfg := s.cfg
	cfg.Seed = seed
	e, err := s.prep.New(cfg)
	if err != nil {
		return err
	}
	if s.warm != nil {
		if err := e.SetSolution(s.warm.Best.Clone()); err != nil {
			return err
		}
	}
	e.Start()
	s.e, s.steps, s.done = e, 0, false
	return nil
}

func (s *saStrategy) Step() (bool, error) {
	if s.done {
		return false, nil
	}
	s.steps++
	more, err := s.e.Step(s.chunk)
	if err != nil {
		s.done = true
		return false, err
	}
	if !more {
		s.done = true
	}
	return more, nil
}

func (s *saStrategy) Best() *Outcome {
	res := s.e.Finish()
	scal := s.cfg.Objective
	out := &Outcome{
		Best:        res.Best,
		Eval:        res.BestEval,
		Vector:      objective.Eval(s.prep.App(), s.prep.Arch(), res.Best, res.BestEval),
		Cost:        scal.CostOf(s.prep.App(), s.prep.Arch(), res.Best, res.BestEval),
		MetDeadline: res.MetDeadline,
		Front:       res.Front,
	}
	// The explorer started from the donor, so its best is never worse than
	// the incumbent; only the donor's archived front needs merging in.
	if s.warm != nil && s.warm.Front != nil {
		merged := s.warm.Front.Clone()
		if out.Front != nil && out.Front.Dims() == merged.Dims() {
			merged.Merge(out.Front)
		}
		out.Front = merged
	}
	return out
}

func (s *saStrategy) Stats() Stats {
	// StatsSnapshot, not Finish: the early-stop driver probes Stats after
	// every chunk, and Finish clones the best mapping each call.
	st := s.e.StatsSnapshot()
	out := Stats{
		Steps: s.steps,
		// Discarded candidates count although a batched run never
		// evaluates them: the sum predates in-place evaluation and is
		// part of the result quality line and of cached outcomes.
		Evaluations: st.Accepted + st.Rejected + st.Discarded,
		BestCost:    st.BestCost,
		Done:        s.done,
		Speculated:  st.Speculated,
		Discarded:   st.Discarded,
		MoveStats:   s.e.MoveStatsSnapshot(),
	}
	if s.warm != nil {
		// A standalone warm-started SA run still reports where its
		// incumbent came from (a scheduler overrides this with its own).
		out.Sched = &SchedStats{TransferKey: s.warmKey, TransferCost: s.warm.Cost}
	}
	return out
}

// ---------- genetic algorithm (the baseline) ----------

// gaStrategy steps the GA one generation at a time.
type gaStrategy struct {
	app      *model.App
	arch     *model.Arch
	cfg      ga.Config
	deadline model.Time

	g     *ga.GA
	steps int
	done  bool
}

func (s *gaStrategy) Name() string { return "ga" }

func (s *gaStrategy) Init(seed int64) error {
	cfg := s.cfg
	cfg.Seed = seed
	g, err := ga.New(s.app, s.arch, cfg)
	if err != nil {
		return err
	}
	s.g, s.steps, s.done = g, 0, false
	return nil
}

func (s *gaStrategy) Step() (bool, error) {
	if s.done {
		return false, nil
	}
	s.steps++
	if !s.g.Step() {
		s.done = true
		return false, nil
	}
	return true, nil
}

func (s *gaStrategy) Best() *Outcome {
	res, err := s.g.Result()
	if err != nil {
		return nil
	}
	return &Outcome{
		Best:        res.Best,
		Eval:        res.BestEval,
		Vector:      objective.Eval(s.app, s.arch, res.Best, res.BestEval),
		Cost:        res.BestCost,
		MetDeadline: metDeadline(s.deadline, res.BestEval),
		Front:       res.Front,
	}
}

func (s *gaStrategy) Stats() Stats {
	return Stats{
		Steps:       s.steps,
		Evaluations: s.g.Evaluations(),
		BestCost:    s.g.BestCost(),
		Done:        s.done,
	}
}

// ---------- deterministic list-scheduling seeder ----------

// listStrategy sweeps a deterministic family of spatial assignments
// through the list-scheduling decoder: tasks are ranked by two priority
// orders — upward rank (critical-path pressure) and hardware gain (software
// time minus best hardware time) — and for every prefix size k the top-k
// tasks request hardware, decoded once with smallest-area and once with
// fastest implementations. The sweep is seed-independent, cheap
// (O(n) decodes), spreads solutions across the whole area axis — seeding
// the area/makespan front in one pass — and its best member is a strong
// warm start for the annealer.
type listStrategy struct {
	app      *model.App
	arch     *model.Arch
	scal     objective.Scalarizer
	metrics  []objective.Metric
	deadline model.Time

	eval    *sched.Evaluator
	dec     *listsched.Decoder
	orders  [][]int // task ids by descending priority, one per family
	fastest []int   // per-task fastest-implementation index

	i     int // next candidate index
	evals int
	best  *Outcome
	front *pareto.NArchive
}

func newListStrategy(app *model.App, arch *model.Arch, scal objective.Scalarizer, metrics []objective.Metric, deadline model.Time) *listStrategy {
	return &listStrategy{app: app, arch: arch, scal: scal, metrics: metrics, deadline: deadline}
}

func (s *listStrategy) Name() string { return "list" }

func (s *listStrategy) Init(int64) error {
	n := s.app.N()
	rank := listsched.Ranks(s.app)
	byRank := prioOrder(n, func(a, b int) bool { return rank[a] > rank[b] })
	gain := make([]model.Time, n)
	for t := 0; t < n; t++ {
		gain[t] = s.app.Tasks[t].SW - s.app.Tasks[t].BestHWTime()
	}
	byGain := prioOrder(n, func(a, b int) bool { return gain[a] > gain[b] })
	s.orders = [][]int{byRank, byGain}
	s.fastest = make([]int, n)
	for t := 0; t < n; t++ {
		for i, im := range s.app.Tasks[t].HW {
			if im.Time < s.app.Tasks[t].HW[s.fastest[t]].Time {
				s.fastest[t] = i
			}
		}
	}
	s.eval = sched.NewEvaluator(s.app, s.arch)
	s.dec = listsched.NewDecoder(s.app, s.arch)
	s.i, s.evals, s.best = 0, 0, nil
	if len(s.metrics) > 0 {
		s.front = pareto.NewNArchive(len(s.metrics))
	} else {
		s.front = nil
	}
	return nil
}

// total candidates: families × (n+1) prefix sizes × 2 implementation modes.
func (s *listStrategy) total() int { return len(s.orders) * (s.app.N() + 1) * 2 }

func (s *listStrategy) Step() (bool, error) {
	if s.i >= s.total() {
		return false, nil
	}
	idx := s.i
	s.i++
	perFam := (s.app.N() + 1) * 2
	order := s.orders[idx/perFam]
	k := (idx % perFam) / 2
	fast := idx%2 == 1
	hw := make([]bool, s.app.N())
	for _, t := range order[:k] {
		hw[t] = true
	}
	var impl []int
	if fast {
		impl = s.fastest
	}
	m, err := s.dec.Build(hw, impl)
	if err != nil {
		// An undecodable assignment (e.g. hardware-only tasks without an
		// RC) just ends this candidate; the sweep continues.
		return s.i < s.total(), nil
	}
	res, err := s.eval.Evaluate(m)
	if err != nil {
		return s.i < s.total(), nil
	}
	s.evals++
	s.observe(m, res)
	return s.i < s.total(), nil
}

func (s *listStrategy) observe(m *sched.Mapping, res sched.Result) {
	v := objective.Eval(s.app, s.arch, m, res)
	cost := s.scal.Cost(res, v)
	if s.front != nil {
		coords := make([]float64, len(s.metrics))
		for i, mt := range s.metrics {
			coords[i] = v[mt]
		}
		s.front.Add(coords, s.evals-1)
	}
	if s.best == nil || cost < s.best.Cost {
		s.best = &Outcome{
			Best:        m,
			Eval:        res,
			Vector:      v,
			Cost:        cost,
			MetDeadline: metDeadline(s.deadline, res),
			Front:       s.front,
		}
	}
}

func (s *listStrategy) Best() *Outcome {
	if s.best == nil {
		return nil
	}
	out := *s.best
	out.Front = s.front
	return &out
}

func (s *listStrategy) Stats() Stats {
	st := Stats{Steps: s.i, Evaluations: s.evals, BestCost: math.Inf(1), Done: s.i >= s.total()}
	if s.best != nil {
		st.BestCost = s.best.Cost
	}
	return st
}

// prioOrder returns task ids sorted by the given strict priority, ids
// ascending among equals (determinism).
func prioOrder(n int, higher func(a, b int) bool) []int {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool { return higher(order[i], order[j]) })
	return order
}

// ---------- exhaustive enumeration (small instances) ----------

// bruteBatch is the number of bipartitions decoded per Step.
const bruteBatch = 64

// bruteStrategy sweeps every HW/SW bipartition of a small instance through
// the list-scheduling decoder (combi.Exhaustive) and keeps the best.
type bruteStrategy struct {
	app      *model.App
	arch     *model.Arch
	scal     objective.Scalarizer
	metrics  []objective.Metric
	deadline model.Time

	x     *combi.Exhaustive
	eval  *sched.Evaluator
	steps int
	evals int
	best  *Outcome
	front *pareto.NArchive
}

func newBruteStrategy(app *model.App, arch *model.Arch, scal objective.Scalarizer, metrics []objective.Metric, deadline model.Time) *bruteStrategy {
	return &bruteStrategy{app: app, arch: arch, scal: scal, metrics: metrics, deadline: deadline}
}

func (s *bruteStrategy) Name() string { return "brute" }

func (s *bruteStrategy) Init(int64) error {
	x, err := combi.NewExhaustive(s.app, s.arch)
	if err != nil {
		return err
	}
	s.x = x
	s.eval = sched.NewEvaluator(s.app, s.arch)
	s.steps, s.evals, s.best = 0, 0, nil
	if len(s.metrics) > 0 {
		s.front = pareto.NewNArchive(len(s.metrics))
	} else {
		s.front = nil
	}
	return nil
}

func (s *bruteStrategy) Step() (bool, error) {
	if s.x.Remaining() == 0 {
		return false, nil
	}
	s.steps++
	for k := 0; k < bruteBatch; k++ {
		m, ok := s.x.Next()
		if !ok {
			return false, nil
		}
		res, err := s.eval.Evaluate(m)
		if err != nil {
			continue
		}
		s.evals++
		v := objective.Eval(s.app, s.arch, m, res)
		cost := s.scal.Cost(res, v)
		if s.front != nil {
			coords := make([]float64, len(s.metrics))
			for i, mt := range s.metrics {
				coords[i] = v[mt]
			}
			s.front.Add(coords, s.evals-1)
		}
		if s.best == nil || cost < s.best.Cost {
			s.best = &Outcome{
				Best:        m,
				Eval:        res,
				Vector:      v,
				Cost:        cost,
				MetDeadline: metDeadline(s.deadline, res),
			}
		}
	}
	return s.x.Remaining() > 0, nil
}

func (s *bruteStrategy) Best() *Outcome {
	if s.best == nil {
		return nil
	}
	out := *s.best
	out.Front = s.front
	return &out
}

func (s *bruteStrategy) Stats() Stats {
	st := Stats{Steps: s.steps, Evaluations: s.evals, BestCost: math.Inf(1), Done: s.x != nil && s.x.Remaining() == 0}
	if s.best != nil {
		st.BestCost = s.best.Cost
	}
	return st
}
