package anneal

import (
	"math"
	"math/rand"
)

// Move is one candidate transition between solutions. Apply mutates the
// problem state and reports whether the move was feasible (an infeasible
// move, e.g. one that would create a precedence cycle, must leave the state
// untouched and return false). Revert undoes a successfully applied move.
//
// g is the Metropolis gate of the proposal. A move that learns a lower
// bound on its new cost before its evaluation is complete may ask
// g.Rejects(bound) and, when that reports true, stop evaluating: the
// runner then reverts the move without reading Problem.Cost. A move that
// never asks follows exactly the same trajectory.
type Move interface {
	Apply(g *Gate) bool
	Revert()
	// Kind tags the move class for adaptive generation statistics.
	Kind() int
}

// Problem is the optimization problem seen by the annealer.
type Problem interface {
	// Cost returns the cost of the current solution (lower is better).
	Cost() float64
	// Propose draws a random candidate move. It may return nil when no
	// move is available for this draw (counted as infeasible).
	Propose(rng *rand.Rand) Move
}

// BestKeeper is optionally implemented by problems that want to snapshot
// their state whenever the annealer observes a new best cost.
type BestKeeper interface {
	KeepBest()
}

// Observation is the per-iteration telemetry passed to trace callbacks.
type Observation struct {
	Iter        int
	Cost        float64
	Best        float64
	Temperature float64
	Accepted    bool
	MoveKind    int
}

// Gate is the Metropolis test of one proposed move, handed to the move
// so that it can stop evaluating as soon as the verdict is known. Its
// uniform draw u comes from the runner's stream at the position the rule
// has always drawn it — after the move is applied, before the next
// proposal — and at most once: on the first Rejects call whose bound is
// uphill, or else at the final decision on an uphill move. Nothing else
// draws in between, so a run whose moves ask Rejects is bit-identical to
// one whose moves never do.
type Gate struct {
	rng      *rand.Rand
	cur      float64 // cost of the current solution
	temp     float64
	u        float64
	drawn    bool
	rejected bool
}

// cutMargin keeps Rejects exact under the rounding of math.Exp: a bound is
// cut only when u clears its acceptance probability by a relative 1e-12,
// far more than exp's error; a move inside the margin is evaluated.
const cutMargin = 1 + 1e-12

// Rejects reports whether a move whose cost is known to be at least lb is
// rejected: u ≥ exp(−(lb−cur)/T)·cutMargin, so every cost ≥ lb fails the
// final test too. A bound at or below the current cost decides nothing
// and draws nothing. A greedy quench (T = 0) rejects every uphill bound;
// a warmup (T = +Inf) none. Once true it stays true. A nil gate never
// rejects.
func (g *Gate) Rejects(lb float64) bool {
	if g == nil {
		return false
	}
	if !g.rejected && lb > g.cur {
		g.rejected = g.draw() >= g.prob(lb)*cutMargin
	}
	return g.rejected
}

// Accepts is the Metropolis rule on a move's exact cost: a downhill or
// equal-cost move is accepted without a draw, an uphill one when
// u < exp(−Δ/T).
func (g *Gate) Accepts(cost float64) bool {
	return cost-g.cur <= 0 || g.draw() < g.prob(cost)
}

func (g *Gate) draw() float64 {
	if !g.drawn {
		g.u, g.drawn = g.rng.Float64(), true
	}
	return g.u
}

// prob is the acceptance probability exp(−Δ/T) of a move to cost c.
func (g *Gate) prob(c float64) float64 {
	delta := c - g.cur
	return math.Exp(-delta / g.temp)
}

// Options configures a run. A run ends when the schedule freezes or the
// iteration budget runs out; a driver that needs to interrupt it earlier
// simply stops calling Runner.Step (the tool "can be interrupted by the
// user at any time and will then return the current solution").
type Options struct {
	// Schedule controls the temperature; required.
	Schedule Schedule
	// MaxIters bounds the number of iterations (proposed moves). Zero
	// means run until the schedule reports Done.
	MaxIters int
	// Seed seeds the internal RNG; runs are fully deterministic for a
	// given seed.
	Seed int64
	// Trace, when non-nil, receives one observation per iteration. The
	// paper's Figure 2 is produced from this stream.
	Trace func(Observation)
}

// Stats summarizes a finished run. It stays a comparable value type —
// drivers snapshot and diff it with ==.
type Stats struct {
	Iters      int
	Accepted   int
	Rejected   int
	Infeasible int
	BestCost   float64
	BestIter   int
	FinalCost  float64
}

// Runner is a resumable annealing run: the loop of Run decomposed into
// bounded Step calls so that drivers (the unified search.Strategy engine,
// portfolio racing) can interleave annealing with other work. A Runner
// stepped to exhaustion is bit-identical to a single Run call — same RNG
// stream, same accept/reject decisions, same statistics.
type Runner struct {
	p      Problem
	opt    Options
	rng    *rand.Rand
	keeper BestKeeper
	cost   float64
	st     Stats
	it     int
	done   bool
	gate   Gate // the proposal in flight
}

// NewRunner prepares a run without executing any iteration. As in Run, the
// initial solution is snapshotted immediately when p implements BestKeeper.
func NewRunner(p Problem, opt Options) *Runner {
	if opt.Schedule == nil {
		panic("anneal: Options.Schedule is required")
	}
	r := &Runner{p: p, opt: opt, rng: rand.New(rand.NewSource(opt.Seed))}
	r.cost = p.Cost()
	r.st = Stats{BestCost: r.cost, FinalCost: r.cost}
	r.keeper, _ = p.(BestKeeper)
	if r.keeper != nil {
		r.keeper.KeepBest()
	}
	return r
}

// Step executes up to n iterations and reports whether the run can
// continue. It returns false once the run is over — iteration budget spent
// or schedule frozen.
func (r *Runner) Step(n int) bool {
	if r.done {
		return false
	}
	opt := &r.opt
	for k := 0; k < n; k++ {
		it := r.it
		if opt.MaxIters != 0 && it >= opt.MaxIters {
			r.done = true
			return false
		}
		if opt.Schedule.Done() {
			r.done = true
			return false
		}
		r.it++
		r.st.Iters++

		mv := r.p.Propose(r.rng)
		r.openGate()
		applied := mv != nil && mv.Apply(&r.gate)
		kind := -1
		if mv != nil {
			kind = mv.Kind()
		}
		accepted := false
		if !applied {
			r.st.Infeasible++
		} else {
			// A move the gate has rejected is reverted unread.
			if !r.gate.rejected {
				if cost := r.p.Cost(); r.gate.Accepts(cost) {
					accepted = true
					r.keep(cost, it)
				}
			}
			if !accepted {
				mv.Revert()
				r.st.Rejected++
			}
		}
		// Every attempt informs the schedule: an infeasible proposal is a
		// rejected transition of the chain (it stayed in place), so the
		// acceptance statistics reflect the true mixing rate and the
		// warmup phase ends after a predictable number of iterations.
		opt.Schedule.Observe(r.cost, accepted)

		if opt.Trace != nil {
			opt.Trace(Observation{
				Iter:        it,
				Cost:        r.cost,
				Best:        r.st.BestCost,
				Temperature: opt.Schedule.Temperature(),
				Accepted:    accepted,
				MoveKind:    kind,
			})
		}
	}
	return true
}

// openGate readies the Metropolis gate for the next proposal.
func (r *Runner) openGate() {
	r.gate = Gate{rng: r.rng, cur: r.cost, temp: r.opt.Schedule.Temperature()}
}

// keep records the acceptance of a move to cost at iteration it.
func (r *Runner) keep(cost float64, it int) {
	r.cost = cost
	r.st.Accepted++
	if r.cost < r.st.BestCost {
		r.st.BestCost = r.cost
		r.st.BestIter = it
		if r.keeper != nil {
			r.keeper.KeepBest()
		}
	}
}

// Done reports whether the run is over.
func (r *Runner) Done() bool { return r.done }

// Stats summarizes the run so far; FinalCost tracks the current solution.
func (r *Runner) Stats() Stats {
	st := r.st
	st.FinalCost = r.cost
	return st
}

// Run executes simulated annealing on p and returns run statistics. The
// problem is left in its final state; if it implements BestKeeper it has
// been told to snapshot each improving solution, so callers can recover the
// best one. Run is NewRunner stepped to exhaustion.
func Run(p Problem, opt Options) Stats {
	r := NewRunner(p, opt)
	for r.Step(1 << 20) {
	}
	return r.Stats()
}
