package anneal

import (
	"math"

	"repro/internal/stats"
)

// Schedule controls the annealing temperature. Observe is called once per
// realizable move with the (post-decision) cost and whether the move was
// accepted; Temperature returns the temperature to use for the next
// Metropolis test; Done reports that the system is frozen. Lam and the
// Greedy quench are its implementations.
type Schedule interface {
	Temperature() float64
	Observe(cost float64, accepted bool)
	Done() bool
}

// lamRho is the move-acceptance quality factor of Lam's derivation,
// ρ(A) = 4A(1−A)²/(2−A)², maximized at A* ≈ 0.44: cooling proceeds fastest
// when the acceptance ratio sits at the theoretical optimum and stalls when
// the chain either accepts everything (A→1, still in equilibrium at any
// temperature) or freezes (A→0, cooling further is pointless).
func lamRho(a float64) float64 {
	d := 2 - a
	return 4 * a * (1 - a) * (1 - a) / (d * d)
}

// LamTargetAcceptance is the acceptance ratio that maximizes the cooling
// speed in Lam's analysis.
const LamTargetAcceptance = 0.44

// Lam is the adaptive schedule of Lam & Delosme (1988) as used by the
// paper: the inverse temperature grows by λ·ρ(A)/σ per move, where A is an
// exponentially weighted estimate of the acceptance ratio and σ an
// exponentially weighted estimate of the cost standard deviation. The run
// starts with a warmup phase at infinite temperature (the flat region of
// the paper's Figure 2) during which only statistics are gathered.
//
// Quality is the λ knob: smaller values cool more slowly and yield better
// solutions at the price of more iterations — this is the "quality of the
// optimization (hence its computing time)" selector of the abstract.
type Lam struct {
	// Quality is λ; typical values 1e-3 (thorough) to 1e-1 (quick).
	quality float64
	warmup  int
	// initFactor sets the first finite temperature as a multiple of the
	// exponentially weighted cost deviation measured at the end of warmup.
	// Deliberately *local*: the walk leaves the infinite-temperature phase
	// wherever entropy carried it, and a temperature matched to the local
	// roughness turns the early cooling phase into a fast, mildly
	// stochastic descent back into the low-cost region. Empirically this
	// reproduces the paper's Figure 2 trajectory (fast fall below the
	// constraint right after the method is activated) far better than a
	// globally anchored hot start, which spends the whole budget in
	// quasi-equilibrium at high temperatures.
	initFactor float64

	seen    int
	invTemp float64

	accept *stats.EWMA
	costEW *stats.EWMoments

	frozenAfter int // consecutive sub-threshold acceptance observations
	frozenRun   int
}

// NewLam builds a Lam schedule with the given quality (λ) and warmup
// length in moves. Non-positive arguments select the defaults λ=0.01 and
// warmup=1200 (the value used in the paper's Figure 2 run).
func NewLam(quality float64, warmup int) *Lam {
	if quality <= 0 {
		quality = 0.01
	}
	if warmup <= 0 {
		warmup = 1200
	}
	return &Lam{
		quality:     quality,
		warmup:      warmup,
		initFactor:  1.5,
		accept:      stats.NewEWMA(1.0 / 64),
		costEW:      stats.NewEWMoments(1.0 / 64),
		frozenAfter: 2000,
	}
}

// Temperature returns +Inf during warmup (every move accepted), then the
// reciprocal of the maintained inverse temperature.
func (l *Lam) Temperature() float64 {
	if l.invTemp <= 0 {
		return math.Inf(1)
	}
	return 1 / l.invTemp
}

// Observe updates the statistics and advances the inverse temperature.
func (l *Lam) Observe(cost float64, accepted bool) {
	l.seen++
	if accepted {
		l.accept.Add(1)
	} else {
		l.accept.Add(0)
	}
	l.costEW.Add(cost)
	if l.seen < l.warmup {
		return // infinite-temperature exploration
	}
	sigma := l.costEW.StdDev()
	if sigma <= 0 {
		// Degenerate landscape region: fall back to a scale derived from
		// the cost magnitude so cooling still progresses.
		sigma = math.Max(math.Abs(cost)*1e-6, 1e-12)
	}
	if l.seen == l.warmup {
		// Leave the infinite-temperature phase: start from a temperature
		// proportional to the locally observed cost dispersion (see the
		// initFactor comment above).
		l.invTemp = 1 / (l.initFactor * sigma)
		return
	}
	// ρ(A) vanishes at A=1, which would stall cooling while the chain
	// still accepts everything; floor it on the hot side (A above the
	// target) so progress is guaranteed. Below the target ρ decays
	// naturally — a freezing chain should not be cooled harder.
	rho := lamRho(l.accept.Value())
	if l.accept.Value() >= LamTargetAcceptance && rho < 1e-3 {
		rho = 1e-3
	}
	l.invTemp += l.quality * rho / sigma

	if l.accept.Value() < 0.002 {
		l.frozenRun++
	} else {
		l.frozenRun = 0
	}
}

// Done reports that the chain has frozen: the acceptance ratio has stayed
// below 0.2% for a long stretch after cooling began.
func (l *Lam) Done() bool {
	return l.seen > l.warmup && l.frozenRun >= l.frozenAfter
}

// Greedy is the zero-temperature schedule: only improving (or equal-cost)
// moves are accepted. The explorer runs it as a final quench from the best
// solution the adaptive schedule found — the frozen end state of Figure 2.
type Greedy struct{}

// Temperature returns 0 (strictly downhill acceptance).
func (Greedy) Temperature() float64 { return 0 }

// Observe is a no-op.
func (Greedy) Observe(float64, bool) {}

// Done always reports false; bound the quench with Options.MaxIters.
func (Greedy) Done() bool { return false }
