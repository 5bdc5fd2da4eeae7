package anneal

import (
	"math"
	"math/rand"
)

// Move is one candidate transition between solutions. Apply mutates the
// problem state and reports whether the move was feasible (an infeasible
// move, e.g. one that would create a precedence cycle, must leave the state
// untouched and return false). Revert undoes a successfully applied move.
type Move interface {
	Apply() bool
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

// BatchProblem is optionally implemented by problems that support
// speculative batch evaluation: the runner draws a round of independent
// candidate moves up front, all against the *current* solution, then
// consumes them one by one in canonical order i = 0..n-1 through the usual
// Metropolis rule. The first accepted candidate invalidates the rest of the
// round — they were drawn against a state that no longer exists — so the
// runner discards them (Stats.Discarded) and speculates a fresh round. The
// consumed trajectory is a pure function of (seed, batch width).
//
// The call order is fixed, and implementations may rely on it: after
// SpeculateBatch, each Candidate(i) is followed by ConsumeCandidate(i, …)
// before the next Candidate, Cost or SpeculateBatch call, and candidates
// are read in increasing i. This lets a problem score a candidate by
// applying it in place and leaving it applied until it is consumed.
type BatchProblem interface {
	Problem
	// SpeculateBatch draws up to k candidate moves from rng against the
	// current solution and returns the number drawn (normally k). It only
	// draws: the problem's state must be left exactly as it was.
	SpeculateBatch(rng *rand.Rand, k int) int
	// Candidate scores candidate i against the current solution and reports
	// its move kind (-1 when the draw produced no move), whether it
	// evaluated feasibly, and its cost. A feasible candidate may be left
	// applied until ConsumeCandidate(i, …).
	Candidate(i int) (kind int, ok bool, cost float64)
	// ConsumeCandidate finalizes candidate i. With accepted true the
	// candidate becomes the current solution (a problem that left it
	// applied simply keeps it) and the call reports success; with accepted
	// false the current solution must be the one the round was drawn
	// against again.
	ConsumeCandidate(i int, accepted bool) bool
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
	// Batch, when >1 and the problem implements BatchProblem, switches the
	// runner to speculative batch evaluation with that many candidates per
	// round. Values <=1 (and problems without batch support) run the exact
	// serial loop, bit-identical to earlier releases. Batched runs follow a
	// different (equally valid) trajectory than serial ones — the RNG
	// interleaving differs — but are themselves fully deterministic for a
	// given (Seed, Batch).
	Batch int
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
	// Speculated counts candidates drawn by speculative batch rounds
	// (zero in serial runs); Discarded counts the speculated candidates
	// that were never consumed because an earlier candidate of their batch
	// was accepted (or the run ended mid-batch). The runner never asks for
	// a discarded candidate's score, so a problem that scores lazily never
	// evaluates it.
	Speculated int
	Discarded  int
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
	bp     BatchProblem // non-nil only when batch mode is active
	cost   float64
	st     Stats
	it     int
	done   bool
}

// NewRunner prepares a run without executing any iteration. As in Run, the
// initial solution is snapshotted immediately when p implements BestKeeper.
func NewRunner(p Problem, opt Options) *Runner {
	if opt.Schedule == nil {
		panic("anneal: Options.Schedule is required")
	}
	r := &Runner{p: p, opt: opt, rng: rand.New(rand.NewSource(opt.Seed))}
	if opt.Batch > 1 {
		r.bp, _ = p.(BatchProblem)
	}
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
// or schedule frozen. In batch mode a Step may overshoot n by up to Batch-1
// iterations: a speculated batch is always consumed to its natural end
// (acceptance or exhaustion), so the trajectory is independent of the step
// granularity.
func (r *Runner) Step(n int) bool {
	if r.done {
		return false
	}
	if r.bp != nil {
		return r.stepBatched(n)
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
		applied := mv != nil && mv.Apply()
		kind := -1
		if mv != nil {
			kind = mv.Kind()
		}
		accepted := false
		if !applied {
			r.st.Infeasible++
		} else {
			newCost := r.p.Cost()
			delta := newCost - r.cost
			if delta <= 0 || r.rng.Float64() < math.Exp(-delta/opt.Schedule.Temperature()) {
				accepted = true
				r.cost = newCost
				r.st.Accepted++
				if r.cost < r.st.BestCost {
					r.st.BestCost = r.cost
					r.st.BestIter = it
					if r.keeper != nil {
						r.keeper.KeepBest()
					}
				}
			} else {
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

// stepBatched is the speculative-evaluation loop: rounds of up to
// opt.Batch candidates are speculated at once, then consumed in canonical
// order through the same Metropolis rule, budget checks, schedule
// observations and trace stream as the serial loop. Acceptance invalidates
// the unconsumed remainder of a round (those candidates were scored against
// the pre-acceptance solution); they are counted in Stats.Discarded.
func (r *Runner) stepBatched(n int) bool {
	opt := &r.opt
	for n > 0 {
		if opt.MaxIters != 0 && r.it >= opt.MaxIters {
			r.done = true
			return false
		}
		if opt.Schedule.Done() {
			r.done = true
			return false
		}
		// Never speculate past the iteration budget: the final round
		// shrinks so the consumed count lands exactly on MaxIters.
		k := opt.Batch
		if opt.MaxIters != 0 && opt.MaxIters-r.it < k {
			k = opt.MaxIters - r.it
		}
		got := r.bp.SpeculateBatch(r.rng, k)
		if got <= 0 {
			// Defensive: a problem that speculated nothing still spent a
			// draw; record one infeasible attempt so the loop provably
			// terminates under any implementation.
			r.it++
			r.st.Iters++
			r.st.Infeasible++
			opt.Schedule.Observe(r.cost, false)
			n--
			continue
		}
		r.st.Speculated += got
		for i := 0; i < got; i++ {
			if opt.Schedule.Done() {
				r.st.Discarded += got - i
				r.done = true
				return false
			}
			it := r.it
			r.it++
			r.st.Iters++
			kind, ok, cost := r.bp.Candidate(i)
			accepted := false
			if !ok {
				r.st.Infeasible++
				r.bp.ConsumeCandidate(i, false)
			} else {
				delta := cost - r.cost
				if delta <= 0 || r.rng.Float64() < math.Exp(-delta/opt.Schedule.Temperature()) {
					if r.bp.ConsumeCandidate(i, true) {
						accepted = true
						r.cost = cost
						r.st.Accepted++
						if r.cost < r.st.BestCost {
							r.st.BestCost = r.cost
							r.st.BestIter = it
							if r.keeper != nil {
								r.keeper.KeepBest()
							}
						}
					} else {
						// Keeping a candidate that scored feasibly cannot
						// fail; treat a refusal as infeasibility so the
						// run still ends.
						r.st.Infeasible++
					}
				} else {
					r.bp.ConsumeCandidate(i, false)
					r.st.Rejected++
				}
			}
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
			n--
			if accepted {
				r.st.Discarded += got - 1 - i
				break
			}
		}
	}
	return true
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
