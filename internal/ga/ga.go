package ga

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/listsched"
	"repro/internal/model"
	"repro/internal/objective"
	"repro/internal/pareto"
	"repro/internal/sched"
)

// Config parameterizes the genetic algorithm.
type Config struct {
	// Population size; the paper cites 300 for [6].
	Population int
	// Generations bounds the run.
	Generations int
	// Stall stops early after this many generations without improvement
	// (0 disables early stopping).
	Stall int
	// CrossoverRate is the probability that a child is produced by
	// one-point crossover rather than cloning.
	CrossoverRate float64
	// MutationRate is the per-gene mutation probability; 0 selects 1/N.
	MutationRate float64
	// Elite individuals survive unchanged each generation.
	Elite int
	// TournamentK is the tournament selection size.
	TournamentK int
	// Seed makes runs reproducible.
	Seed int64
	// Stop, when non-nil, is polled once per generation; returning true
	// interrupts the run, which then returns the best individual so far.
	Stop func() bool
	// Objective overrides the scalarization of the fitness. nil selects
	// the shared fixed-architecture default (objective.FixedArch) — the
	// same cost the annealer minimizes on a fixed architecture.
	Objective *objective.Scalarizer
	// FrontMetrics, when non-empty, archives each generation's best
	// individual projected onto these objective coordinates; the archive
	// is returned in Result.Front.
	FrontMetrics []objective.Metric
}

// DefaultConfig mirrors the baseline's published setting.
func DefaultConfig() Config {
	return Config{
		Population:    300,
		Generations:   120,
		Stall:         30,
		CrossoverRate: 0.9,
		MutationRate:  0,
		Elite:         4,
		TournamentK:   3,
		Seed:          1,
	}
}

// Result is the outcome of a GA run.
type Result struct {
	Best     *sched.Mapping
	BestEval sched.Result
	BestCost float64
	// Generations actually executed and fitness evaluations performed.
	Generations int
	Evaluations int
	// Front is the archive over Config.FrontMetrics (nil when disabled).
	Front *pareto.NArchive
}

// genome is one individual: a hardware bit and an implementation gene per
// task.
type genome struct {
	hw   []bool
	impl []int
	cost float64
	eval sched.Result
	ok   bool
}

func (g *genome) clone() *genome {
	return &genome{
		hw:   append([]bool(nil), g.hw...),
		impl: append([]int(nil), g.impl...),
		cost: g.cost,
		eval: g.eval,
		ok:   g.ok,
	}
}

// copyInto overwrites dst with g, reusing dst's gene slices.
func (g *genome) copyInto(dst *genome) {
	dst.hw = append(dst.hw[:0], g.hw...)
	dst.impl = append(dst.impl[:0], g.impl...)
	dst.cost, dst.eval, dst.ok = g.cost, g.eval, g.ok
}

// GA is a resumable genetic-algorithm run: New builds and scores the
// initial population, each Step executes one generation, and Result reads
// back the best individual. Explore is New stepped to exhaustion.
type GA struct {
	app  *model.App
	arch *model.Arch
	cfg  Config
	n    int
	mut  float64
	rng  *rand.Rand
	eval *sched.Evaluator
	dec  *listsched.Decoder
	scal objective.Scalarizer
	// scratch receives every fitness decode: the mapping is only scored,
	// never kept, so one buffer serves the whole run.
	scratch sched.Mapping

	pop []*genome
	// spare is the generation before pop. Nothing references it any more
	// (best is a clone), so Step recycles its genomes for the next one.
	spare []*genome
	best  *genome
	stall int
	gen   int
	evals int
	done  bool

	front       *pareto.NArchive
	frontCoords []float64
}

// New validates the configuration and builds the initial population.
func New(app *model.App, arch *model.Arch, cfg Config) (*GA, error) {
	if err := app.Validate(); err != nil {
		return nil, err
	}
	if err := arch.Validate(); err != nil {
		return nil, err
	}
	if cfg.Population < 2 {
		return nil, fmt.Errorf("ga: population %d too small", cfg.Population)
	}
	if cfg.Generations < 1 {
		return nil, fmt.Errorf("ga: needs at least one generation")
	}
	if cfg.Elite >= cfg.Population {
		return nil, fmt.Errorf("ga: elite %d must be below population %d", cfg.Elite, cfg.Population)
	}
	if cfg.TournamentK < 1 {
		cfg.TournamentK = 2
	}
	g := &GA{
		app:  app,
		arch: arch,
		cfg:  cfg,
		n:    app.N(),
		mut:  cfg.MutationRate,
		rng:  rand.New(rand.NewSource(cfg.Seed)),
		eval: sched.NewEvaluator(app, arch),
		dec:  listsched.NewDecoder(app, arch),
	}
	if g.mut <= 0 {
		g.mut = 1.0 / float64(g.n)
	}
	if cfg.Objective != nil {
		g.scal = *cfg.Objective
	} else {
		g.scal = objective.FixedArch()
	}
	if len(cfg.FrontMetrics) > 0 {
		g.front = pareto.NewNArchive(len(cfg.FrontMetrics))
		g.frontCoords = make([]float64, len(cfg.FrontMetrics))
	}

	g.pop = make([]*genome, cfg.Population)
	for i := range g.pop {
		ind := &genome{hw: make([]bool, g.n), impl: make([]int, g.n)}
		for t := 0; t < g.n; t++ {
			ind.hw[t] = g.rng.Intn(2) == 0
			if k := len(app.Tasks[t].HW); k > 0 {
				ind.impl[t] = g.rng.Intn(k)
			}
		}
		g.fitness(ind)
		g.pop[i] = ind
	}
	g.best = fittest(g.pop).clone()
	g.offerFront()
	return g, nil
}

// fitness decodes and scores one individual through the shared objective
// layer.
func (g *GA) fitness(ind *genome) {
	g.evals++
	cost, eval, err := g.score(&g.scratch, ind.hw, ind.impl)
	if err != nil {
		ind.cost, ind.ok = math.Inf(1), false
		return
	}
	ind.cost, ind.eval, ind.ok = cost, eval, true
}

// Fitness decodes a spatial assignment into a complete mapping and scores
// it under the GA's objective — the exact cost the annealer would assign
// the same mapping under the same scalarizer. Exposed so cross-strategy
// regression tests can pin that equivalence.
func (g *GA) Fitness(hw []bool, impl []int) (float64, sched.Result, *sched.Mapping, error) {
	m := &sched.Mapping{}
	cost, res, err := g.score(m, hw, impl)
	if err != nil {
		return 0, sched.Result{}, nil, err
	}
	return cost, res, m, nil
}

// score decodes an assignment into m, reusing its storage, and scores it.
func (g *GA) score(m *sched.Mapping, hw []bool, impl []int) (float64, sched.Result, error) {
	if err := g.dec.BuildInto(m, hw, impl); err != nil {
		return 0, sched.Result{}, err
	}
	res, err := g.eval.Evaluate(m)
	if err != nil {
		return 0, sched.Result{}, err
	}
	return g.scal.CostOf(g.app, g.arch, m, res), res, nil
}

// offerFront archives the current best individual's objective vector.
func (g *GA) offerFront() {
	if g.front == nil || !g.best.ok {
		return
	}
	m, err := g.dec.Build(g.best.hw, g.best.impl)
	if err != nil {
		return
	}
	objective.Project(g.cfg.FrontMetrics, g.app, g.arch, m, g.best.eval, g.frontCoords)
	g.front.Add(g.frontCoords, g.gen)
}

// Generations returns the number of generations executed so far.
func (g *GA) Generations() int { return g.gen }

// Evaluations returns the number of fitness evaluations performed so far.
func (g *GA) Evaluations() int { return g.evals }

// BestCost returns the best cost observed so far (+Inf before the first
// feasible individual).
func (g *GA) BestCost() float64 { return g.best.cost }

// Step executes one generation and reports whether the run can continue.
func (g *GA) Step() bool {
	if g.done || g.gen >= g.cfg.Generations {
		g.done = true
		return false
	}
	if g.cfg.Stop != nil && g.cfg.Stop() {
		g.done = true
		return false
	}
	next := g.spare[:0]
	// Elitism: carry the best individuals over unchanged.
	for _, ind := range elites(g.pop, g.cfg.Elite) {
		next = g.appendCopy(next, ind)
	}
	for len(next) < g.cfg.Population {
		a := tournament(g.pop, g.cfg.TournamentK, g.rng)
		b := tournament(g.pop, g.cfg.TournamentK, g.rng)
		next = g.appendCopy(next, a)
		child := next[len(next)-1]
		if g.rng.Float64() < g.cfg.CrossoverRate {
			cut := g.rng.Intn(g.n)
			copy(child.hw[cut:], b.hw[cut:])
			copy(child.impl[cut:], b.impl[cut:])
		}
		for t := 0; t < g.n; t++ {
			if g.rng.Float64() < g.mut {
				child.hw[t] = !child.hw[t]
			}
			if k := len(g.app.Tasks[t].HW); k > 0 && g.rng.Float64() < g.mut {
				child.impl[t] = g.rng.Intn(k)
			}
		}
		g.fitness(child)
	}
	g.spare, g.pop = g.pop, next
	g.gen++
	if f := fittest(g.pop); f.cost < g.best.cost {
		g.best = f.clone()
		g.stall = 0
		g.offerFront()
	} else {
		g.stall++
		if g.cfg.Stall > 0 && g.stall >= g.cfg.Stall {
			g.done = true
			return false
		}
	}
	return g.gen < g.cfg.Generations
}

// appendCopy appends a copy of ind to next, which Step builds in spare's
// array: slot i reuses the genome spare[i], read before it is overwritten.
func (g *GA) appendCopy(next []*genome, ind *genome) []*genome {
	if i := len(next); i < len(g.spare) {
		c := g.spare[i]
		ind.copyInto(c)
		return append(next, c)
	}
	return append(next, ind.clone())
}

// Result reads back the best individual found so far.
func (g *GA) Result() (*Result, error) {
	if !g.best.ok {
		return nil, fmt.Errorf("ga: no feasible individual found")
	}
	m, err := g.dec.Build(g.best.hw, g.best.impl)
	if err != nil {
		return nil, err
	}
	return &Result{
		Best:        m,
		BestEval:    g.best.eval,
		BestCost:    g.best.cost,
		Generations: g.gen,
		Evaluations: g.evals,
		Front:       g.front,
	}, nil
}

// Explore runs the genetic algorithm to completion.
func Explore(app *model.App, arch *model.Arch, cfg Config) (*Result, error) {
	g, err := New(app, arch, cfg)
	if err != nil {
		return nil, err
	}
	for g.Step() {
	}
	return g.Result()
}

func fittest(pop []*genome) *genome {
	best := pop[0]
	for _, g := range pop[1:] {
		if g.cost < best.cost {
			best = g
		}
	}
	return best
}

// elites returns the k best individuals (k small, so selection sort).
func elites(pop []*genome, k int) []*genome {
	if k <= 0 {
		return nil
	}
	idx := make([]int, len(pop))
	for i := range idx {
		idx[i] = i
	}
	for i := 0; i < k && i < len(idx); i++ {
		m := i
		for j := i + 1; j < len(idx); j++ {
			if pop[idx[j]].cost < pop[idx[m]].cost {
				m = j
			}
		}
		idx[i], idx[m] = idx[m], idx[i]
	}
	out := make([]*genome, 0, k)
	for i := 0; i < k && i < len(idx); i++ {
		out = append(out, pop[idx[i]])
	}
	return out
}

func tournament(pop []*genome, k int, rng *rand.Rand) *genome {
	best := pop[rng.Intn(len(pop))]
	for i := 1; i < k; i++ {
		if g := pop[rng.Intn(len(pop))]; g.cost < best.cost {
			best = g
		}
	}
	return best
}
