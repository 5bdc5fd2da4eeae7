package search

import (
	"context"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/ga"
	"repro/internal/model"
	"repro/internal/objective"
	"repro/internal/pareto"
	"repro/internal/sched"
)

// Stats is cross-strategy run telemetry.
type Stats struct {
	// Steps counts Step calls that did work.
	Steps int
	// Evaluations counts candidate solutions: GA fitness calls, decoded
	// seeds / bipartitions, and for annealing Accepted + Rejected +
	// Discarded. A batched annealing run thus also counts the speculated
	// candidates discarded after their round's acceptance, which were
	// drawn but never scored; evaluations per second overstate batched
	// scoring throughput by that share (Stats.Discarded).
	Evaluations int
	// BestCost is the best scalarized cost observed so far (+Inf before
	// the first feasible candidate).
	BestCost float64
	// Done reports whether the strategy has exhausted its search.
	Done bool
	// Speculated and Discarded carry the SA batch-evaluation telemetry
	// (zero for serial runs and non-SA strategies; see anneal.Stats).
	Speculated int
	Discarded  int
	// MoveStats carries the SA per-move-kind proposal/acceptance counters
	// (zero for non-SA strategies).
	MoveStats core.MoveStats
	// LaneStats is always zero: the lane batch kernel that filled it is
	// retired (see core.LaneStats).
	LaneStats core.LaneStats
	// EarlyStopped reports that the driver's adaptive early-stop rule
	// truncated the run (see Config.EarlyStopEpsilon).
	EarlyStopped bool
	// Sched carries the scheduler/transfer telemetry (nil for strategies
	// that neither schedule members nor consumed a warm start).
	Sched *SchedStats
}

// Outcome is the best solution a strategy has found so far.
type Outcome struct {
	// Best is the best mapping found.
	Best *sched.Mapping
	// Eval is its schedule evaluation.
	Eval sched.Result
	// Vector is its full objective vector.
	Vector objective.Vector
	// Cost is its scalarized cost under the strategy's objective.
	Cost float64
	// MetDeadline reports Eval.Makespan against the configured deadline
	// (vacuously true without one).
	MetDeadline bool
	// Front is the strategy's Pareto archive over the configured front
	// metrics (nil when disabled).
	Front *pareto.NArchive
}

// Strategy is one search algorithm over a fixed (application,
// architecture, objective) triple. The lifecycle is Init once, Step until
// it returns false (or the driver's budget runs out), then Best/Stats at
// any point — including mid-run, for progress snapshots. Implementations
// are single-goroutine objects; drive each instance from one goroutine.
type Strategy interface {
	// Name identifies the strategy ("sa", "ga", "list", "brute",
	// "portfolio", "bandit").
	Name() string
	// Init (re)starts the search from the given seed. Deterministic
	// strategies (list, brute) ignore the seed.
	Init(seed int64) error
	// Step advances the search by one increment — a chunk of annealing
	// iterations, one GA generation, one decoded seed, a batch of
	// enumerated bipartitions — and reports whether the search can
	// continue. A false return with nil error means exhausted/converged.
	Step() (bool, error)
	// Best returns the best solution found so far, or nil before the
	// first feasible candidate.
	Best() *Outcome
	// Stats returns run telemetry.
	Stats() Stats
}

// Config bundles the parameters of every strategy, so one value can
// configure any of them (and the portfolio can mix them). The shared
// Objective and FrontMetrics are applied to every member uniformly — this
// is what guarantees that racing strategies agree on what "better" means.
type Config struct {
	// Objective overrides the shared scalarization. nil selects the
	// paper's default for the SA mode: objective.FixedArch(), or
	// objective.ArchExplore(SA.Deadline, SA.PenaltyWeight) when
	// SA.ExploreArch is set.
	Objective *objective.Scalarizer
	// FrontMetrics, when non-empty, makes every strategy archive the
	// non-dominated projections of the solutions it visits.
	FrontMetrics []objective.Metric
	// SA parameterizes the annealing strategy (its Objective/FrontMetrics
	// fields are overwritten by the shared settings above).
	SA core.Config
	// GA parameterizes the genetic baseline (same note).
	GA ga.Config
	// Portfolio names the member strategies of the composite strategies
	// ("portfolio", "bandit"). Empty selects DefaultPortfolio.
	Portfolio []string
	// SchedSlice is the number of consecutive member steps per UCB1 slice
	// of the "bandit" kind (<=0 selects DefaultSchedSlice; ignored by the
	// round-robin "portfolio" and by non-composite kinds). Fingerprinted
	// for the bandit.
	SchedSlice int
	// SAChunk is the number of annealing iterations per SA Step (default
	// 64) — the granularity at which the portfolio interleaves SA with
	// the other members.
	SAChunk int
	// EarlyStopEpsilon, together with EarlyStopWindow, enables the
	// driver-level adaptive early stop in RunStats: the run ends once the
	// best cost has improved by less than EarlyStopEpsilon (relative to
	// its magnitude) over the last EarlyStopWindow driver steps. Zero (the
	// default) disables the rule — runs then consume their full budget
	// exactly as before. Early stopping changes results, so both knobs are
	// part of the factory fingerprint.
	EarlyStopEpsilon float64
	// EarlyStopWindow is the sliding-window length, in driver steps, of
	// the early-stop rule (<=0 disables it).
	EarlyStopWindow int
}

// DefaultPortfolio is the default member set of the portfolio strategy.
var DefaultPortfolio = []string{"sa", "list", "ga"}

// DefaultConfig returns the paper-faithful defaults for every member.
func DefaultConfig() Config {
	return Config{SA: core.DefaultConfig(), GA: ga.DefaultConfig()}
}

// scalarizer resolves the effective shared objective.
func (c *Config) scalarizer() objective.Scalarizer {
	if c.Objective != nil {
		return *c.Objective
	}
	if c.SA.ExploreArch {
		return objective.ArchExplore(c.SA.Deadline, c.SA.PenaltyWeight)
	}
	return objective.FixedArch()
}

// Factory builds fresh Strategy instances of one named kind over a
// validated (application, architecture) pair. Multi-run drivers construct
// the factory once — hoisting validation and the SA precedence-closure
// preparation out of the per-run path — and call New per seed; a Factory
// is immutable after construction and safe for concurrent New calls.
type Factory struct {
	name string
	def  *definition
	app  *model.App
	arch *model.Arch
	cfg  Config
	scal objective.Scalarizer
	prep *core.Prepared // non-nil when the kind (or a scheduler member) is "sa"
	warm *WarmStart     // transfer warm start (see SetWarmStart)
}

// NewFactory validates the instance and resolves the named strategy kind
// against the registry.
func NewFactory(name string, app *model.App, arch *model.Arch, cfg Config) (*Factory, error) {
	def := registry[name]
	if def == nil {
		return nil, fmt.Errorf("search: unknown strategy %q (have %v)", name, Names())
	}
	f := &Factory{name: name, def: def, app: app, arch: arch, cfg: cfg, scal: cfg.scalarizer()}
	members := []string{name}
	if def.composite {
		var err error
		if members, err = f.memberNames(); err != nil {
			return nil, err
		}
	}
	for _, m := range members {
		if v := registry[m].validate; v != nil {
			if err := v(f); err != nil {
				return nil, err
			}
		}
	}
	return f, nil
}

// memberNames resolves and checks the member list of a composite kind.
func (f *Factory) memberNames() ([]string, error) {
	members := f.cfg.Portfolio
	if len(members) == 0 {
		members = DefaultPortfolio
	}
	for _, m := range members {
		md := registry[m]
		if md == nil {
			return nil, fmt.Errorf("search: unknown strategy %q (have %v)", m, Names())
		}
		if md.composite {
			return nil, fmt.Errorf("search: %s cannot nest scheduler strategy %q", f.name, m)
		}
	}
	return members, nil
}

// schedPolicy resolves the scheduling policy and slice length of a
// composite kind ("", 0 for the rest — their fingerprints must not move
// with scheduler knobs they ignore).
func (f *Factory) schedPolicy() (policy string, slice int) {
	policy = f.def.policy
	if policy != SchedUCB {
		return policy, 0
	}
	slice = f.cfg.SchedSlice
	if slice <= 0 {
		slice = DefaultSchedSlice
	}
	return policy, slice
}

// Name returns the factory's strategy kind.
func (f *Factory) Name() string { return f.name }

// SetRecycler installs an evaluator recycler on the SA configuration of
// every strategy the factory builds from now on (see core.Config.Recycler
// — pure throughput, bit-identical results, no fingerprint impact). Call
// before the first New/Init; the multi-run drivers do.
func (f *Factory) SetRecycler(r core.Recycler) { f.cfg.SA.Recycler = r }

// SetWarmStart installs ws as the transfer warm start of every strategy
// the factory builds from now on: SA (standalone or as a scheduler member)
// starts from the donor mapping instead of a random one, and the
// schedulers additionally hold the donor as their initial incumbent.
// Returns false — installing nothing — when ws is unusable or the kind
// cannot consume a warm start (ga/list/brute), so a no-op transfer never
// skews fingerprints. Call before the first New and before Fingerprint is
// used for caching: the donor key becomes part of the fingerprint, which
// is exactly what keeps warm-started results reproducible and
// cache-correct.
func (f *Factory) SetWarmStart(ws *WarmStart) bool {
	if ws == nil || ws.Best == nil || ws.Key == "" || !f.def.warmable {
		return false
	}
	w := *ws
	if w.Front != nil && w.Front.Dims() != len(f.cfg.FrontMetrics) {
		// A donor front in a different metric space cannot be merged.
		w.Front = nil
	}
	f.warm = &w
	return true
}

// WarmStartKey returns the installed donor's memo key ("" without one).
func (f *Factory) WarmStartKey() string {
	if f.warm == nil {
		return ""
	}
	return f.warm.Key
}

// warmIncumbent re-evaluates the donor mapping under this factory's
// models and objective, turning the WarmStart into an Outcome the
// schedulers can hold as incumbent (and whose cost seeds the reward
// baseline). The donor is validated by evaluation: a mapping that does
// not schedule on this instance is a construction error, not a silent
// cold start.
func (f *Factory) warmIncumbent() (*Outcome, error) {
	if f.warm == nil {
		return nil, nil
	}
	m := f.warm.Best.Clone()
	res, err := sched.NewEvaluator(f.app, f.arch).Evaluate(m)
	if err != nil {
		return nil, fmt.Errorf("search: warm-start donor mapping does not evaluate: %w", err)
	}
	v := objective.Eval(f.app, f.arch, m, res)
	out := &Outcome{
		Best:        m,
		Eval:        res,
		Vector:      v,
		Cost:        f.scal.Cost(res, v),
		MetDeadline: metDeadline(f.cfg.SA.Deadline, res),
	}
	if f.warm.Front != nil {
		out.Front = f.warm.Front.Clone()
	}
	return out, nil
}

// New builds a fresh, uninitialized strategy instance.
func (f *Factory) New() (Strategy, error) {
	return f.newNamed(f.name)
}

func (f *Factory) newNamed(name string) (Strategy, error) {
	def := registry[name]
	if def == nil {
		return nil, fmt.Errorf("search: unknown strategy %q (have %v)", name, Names())
	}
	return def.build(f)
}

// buildSA, buildGA, buildList, buildBrute, and buildScheduler are the
// registry build hooks (see registry.go).

func buildSA(f *Factory) (Strategy, error) {
	cfg := f.cfg.SA
	cfg.Objective = &f.scal
	cfg.FrontMetrics = f.cfg.FrontMetrics
	chunk := f.cfg.SAChunk
	if chunk <= 0 {
		chunk = 64
	}
	s := &saStrategy{prep: f.prep, cfg: cfg, chunk: chunk}
	if f.warm != nil {
		inc, err := f.warmIncumbent()
		if err != nil {
			return nil, err
		}
		s.warm = inc
		s.warmKey = f.warm.Key
	}
	return s, nil
}

func buildGA(f *Factory) (Strategy, error) {
	cfg := f.cfg.GA
	cfg.Objective = &f.scal
	cfg.FrontMetrics = f.cfg.FrontMetrics
	return &gaStrategy{app: f.app, arch: f.arch, cfg: cfg, deadline: f.cfg.SA.Deadline}, nil
}

func buildList(f *Factory) (Strategy, error) {
	return newListStrategy(f.app, f.arch, f.scal, f.cfg.FrontMetrics, f.cfg.SA.Deadline), nil
}

func buildBrute(f *Factory) (Strategy, error) {
	return newBruteStrategy(f.app, f.arch, f.scal, f.cfg.FrontMetrics, f.cfg.SA.Deadline), nil
}

func buildScheduler(f *Factory) (Strategy, error) {
	members, err := f.memberNames()
	if err != nil {
		return nil, err
	}
	arms := make([]schedArm, len(members))
	for i, m := range members {
		s, err := f.newNamed(m)
		if err != nil {
			return nil, err
		}
		arms[i].s = s
	}
	policy, slice := f.schedPolicy()
	inc, err := f.warmIncumbent()
	if err != nil {
		return nil, err
	}
	return &scheduler{name: f.name, policy: policy, slice: slice, warm: f.warm, incumbent: inc, arms: arms}, nil
}

// Run drives a freshly built instance of the factory's strategy: Init with
// seed, Step until the strategy is exhausted, maxSteps (0 = unbounded) is
// spent, or ctx is cancelled, then Best. A cancelled run returns its
// best-so-far together with ctx.Err(); a run that never found a feasible
// solution returns an error.
func Run(ctx context.Context, f *Factory, seed int64, maxSteps int) (*Outcome, error) {
	out, _, err := RunStats(ctx, f, seed, maxSteps)
	return out, err
}

// RunStats is Run plus the instance's final telemetry — the evaluation
// counts the benchmark harness turns into evals/s. When the factory's
// configuration enables the adaptive early stop, RunStats also monitors the
// best cost after every step and ends the run once a full window of steps
// passes without meaningful improvement (Stats.EarlyStopped).
func RunStats(ctx context.Context, f *Factory, seed int64, maxSteps int) (*Outcome, Stats, error) {
	s, err := f.New()
	if err != nil {
		return nil, Stats{}, err
	}
	if err := s.Init(seed); err != nil {
		return nil, Stats{}, err
	}
	eps, win := f.cfg.EarlyStopEpsilon, f.cfg.EarlyStopWindow
	monitor := eps > 0 && win > 0
	var hist []float64 // ring buffer: best cost at each of the last win+1 steps
	if monitor {
		hist = make([]float64, win+1)
	}
	earlyStopped := false
	for step := 0; maxSteps == 0 || step < maxSteps; step++ {
		if ctx != nil && ctx.Err() != nil {
			break
		}
		more, err := s.Step()
		if err != nil {
			return nil, s.Stats(), err
		}
		if monitor {
			bc := s.Stats().BestCost
			hist[step%(win+1)] = bc
			if step >= win {
				// The improvement over the last win steps, relative to the
				// cost's magnitude. +Inf window heads (no feasible solution
				// yet) never trip the rule: Inf-Inf is NaN and Inf-finite
				// is +Inf, both of which fail the <= comparison.
				old := hist[(step-win)%(win+1)]
				if old-bc <= eps*math.Abs(old) {
					earlyStopped = true
					break
				}
			}
		}
		if !more {
			break
		}
	}
	out := s.Best()
	st := s.Stats()
	st.EarlyStopped = earlyStopped
	if out == nil {
		return nil, st, fmt.Errorf("search: strategy %q found no feasible solution", s.Name())
	}
	if ctx != nil && ctx.Err() != nil {
		return out, st, ctx.Err()
	}
	return out, st, nil
}

// metDeadline is the shared deadline report of the Outcome builders.
func metDeadline(deadline model.Time, res sched.Result) bool {
	return deadline <= 0 || res.Makespan <= deadline
}
