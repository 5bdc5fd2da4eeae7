package search

import (
	"flag"
	"fmt"
	"math"

	"repro/internal/objective"
)

// DefaultEarlyStopWindow is the early-stop window, in driver steps, of an
// Overrides.EarlyStopEpsilon set without a window.
const DefaultEarlyStopWindow = 32

// Overrides are the user knobs that shape a run's result, under their
// wire names. The CLIs bind them to flags, dsed decodes them from the job
// spec and the bench matrix carries them; Apply is the only code that
// writes them into a Config, so the same knobs give the same run on every
// surface. A zero value keeps the base configuration's setting, and so
// does a negative budget, quality, batch width, epsilon or window.
type Overrides struct {
	SAIters int     `json:"saIters,omitempty"` // annealing iterations (SA.MaxIters)
	Quality float64 `json:"quality,omitempty"` // Lam schedule quality λ (SA.Quality)
	// WArea and WReconf weigh occupied area (cost per CLB) and
	// reconfiguration time (cost per ms, initial and dynamic) on top of
	// objective.FixedArch, replacing the base objective.
	WArea   float64 `json:"wArea,omitempty"`
	WReconf float64 `json:"wReconf,omitempty"`
	Batch   int     `json:"batch,omitempty"` // speculative SA batch width (SA.Batch)
	// EarlyStopEpsilon enables the adaptive early stop over
	// EarlyStopWindow steps (DefaultEarlyStopWindow when unset).
	EarlyStopEpsilon float64 `json:"earlyStopEpsilon,omitempty"`
	EarlyStopWindow  int     `json:"earlyStopWindow,omitempty"`
	SchedSlice       int     `json:"schedSlice,omitempty"` // bandit UCB slice length; negative is an error
	// Transfer warm-starts warmable strategies from the best cached
	// outcome on the same instance pair. It is no Config setting: callers
	// hand it to the result cache (runner.CacheConfig.Transfer).
	Transfer bool `json:"transfer,omitempty"`
}

// Apply validates the knobs and writes every set one into cfg.
func (o *Overrides) Apply(cfg *Config) error {
	for _, k := range []struct {
		name string
		v    float64
	}{{"quality", o.Quality}, {"wArea", o.WArea}, {"wReconf", o.WReconf}, {"earlyStopEpsilon", o.EarlyStopEpsilon}} {
		if math.IsNaN(k.v) || math.IsInf(k.v, 0) {
			return fmt.Errorf("search: %s must be finite, got %v", k.name, k.v)
		}
	}
	if o.SchedSlice < 0 {
		return fmt.Errorf("search: schedSlice must not be negative, got %d", o.SchedSlice)
	}
	if o.SAIters > 0 {
		cfg.SA.MaxIters = o.SAIters
	}
	if o.Quality > 0 {
		cfg.SA.Quality = o.Quality
	}
	if o.Batch > 0 {
		cfg.SA.Batch = o.Batch
	}
	if o.EarlyStopEpsilon > 0 {
		cfg.EarlyStopEpsilon, cfg.EarlyStopWindow = o.EarlyStopEpsilon, o.EarlyStopWindow
		if o.EarlyStopWindow <= 0 {
			cfg.EarlyStopWindow = DefaultEarlyStopWindow
		}
	}
	if o.SchedSlice > 0 {
		cfg.SchedSlice = o.SchedSlice
	}
	if o.WArea != 0 || o.WReconf != 0 {
		scal := objective.FixedArch()
		scal.Weights[objective.HWArea] = o.WArea
		scal.Weights[objective.InitialReconfig] = o.WReconf
		scal.Weights[objective.DynamicReconfig] = o.WReconf
		cfg.Objective = &scal
	}
	return nil
}

// RegisterFlags binds the flags every search CLI shares: -batch,
// -early-stop, -early-stop-window, -sched-slice and -transfer. The CLIs
// that take them bind -iters, -quality, -w-area and -w-reconf to the
// other fields.
func (o *Overrides) RegisterFlags(fs *flag.FlagSet) {
	fs.IntVar(&o.Batch, "batch", 0, "speculative batch width for SA moves (<=1 = serial; changes the trajectory deterministically)")
	fs.Float64Var(&o.EarlyStopEpsilon, "early-stop", 0, "adaptive early stop: end a run when best cost improves < this fraction over -early-stop-window steps (0 = off)")
	fs.IntVar(&o.EarlyStopWindow, "early-stop-window", DefaultEarlyStopWindow, "sliding-window length (driver steps) of -early-stop (<=0 = 32)")
	fs.IntVar(&o.SchedSlice, "sched-slice", 0, "UCB budget-slice length of the bandit in driver steps (0 = engine default)")
	fs.BoolVar(&o.Transfer, "transfer", false, "warm-start from the best cached outcome on the same instance pair (uses the result cache)")
}
