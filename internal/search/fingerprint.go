package search

import (
	"encoding/json"
	"fmt"

	"repro/internal/core"
	"repro/internal/ga"
	"repro/internal/model"
	"repro/internal/objective"
)

// App returns the application the factory builds strategies over.
func (f *Factory) App() *model.App { return f.app }

// Arch returns the architecture the factory builds strategies over.
func (f *Factory) Arch() *model.Arch { return f.arch }

// saFields is the deterministic projection of core.Config included in
// fingerprints: every value field that influences a run's result. Seed is
// deliberately absent (the runner overrides it per run; it belongs in the
// cache key, not the fingerprint), and so are EvalMode and Paranoid —
// both evaluation paths are bit-identical by contract, so results may be
// shared across them. AdaptiveMoves is always true: it names the move
// selector every fingerprint has carried, which is now the only one.
type saFields struct {
	Quality        float64
	Warmup         int
	MaxIters       int
	Deadline       model.Time
	ExploreArch    bool
	PenaltyWeight  float64
	AdaptiveMoves  bool
	QuenchIters    int
	EnableCtxSplit bool
	// Batch changes the annealing trajectory (see core.Config.Batch), so
	// batched and serial runs must never share cache entries. Serial widths
	// (<=1) normalize to 0 and omit from the JSON, keeping the fingerprint —
	// and every previously persisted cache key — byte-identical for serial
	// runs.
	Batch int `json:",omitempty"`
}

func saProject(c *core.Config) saFields {
	b := c.Batch
	if b <= 1 {
		b = 0
	}
	return saFields{
		Quality:        c.Quality,
		Warmup:         c.Warmup,
		MaxIters:       c.MaxIters,
		Deadline:       c.Deadline,
		ExploreArch:    c.ExploreArch,
		PenaltyWeight:  c.PenaltyWeight,
		AdaptiveMoves:  true,
		QuenchIters:    c.QuenchIters,
		EnableCtxSplit: c.EnableCtxSplit,
		Batch:          b,
	}
}

// gaFields is the analogous projection of ga.Config. The operator fields
// carry the ga package's constants, and MutationRate keeps the "0 selects
// 1/N" encoding every fingerprint has carried, so fingerprints stay
// byte-identical to the releases in which these were knobs.
type gaFields struct {
	Population    int
	Generations   int
	Stall         int
	CrossoverRate float64
	MutationRate  float64
	Elite         int
	TournamentK   int
}

func gaProject(c *ga.Config) gaFields {
	return gaFields{
		Population:    c.Population,
		Generations:   c.Generations,
		Stall:         c.Stall,
		CrossoverRate: ga.CrossoverRate,
		MutationRate:  0,
		Elite:         ga.Elite,
		TournamentK:   ga.TournamentK,
	}
}

// Fingerprint returns a deterministic string identifying everything about
// the factory that shapes a run's result besides the instance models and
// the per-run seed: the strategy kind, the resolved shared objective, the
// front metrics, and the per-strategy budgets. Together with
// model.App.Digest, model.Arch.Digest, the seed, and the driver's step
// budget it forms the memoization key of the result cache.
//
// ok is false when the configuration carries a Trace hook (SA.Trace),
// whose observable side effects a cached answer cannot replay; such runs
// must not be cached.
func (f *Factory) Fingerprint() (fp string, ok bool) {
	if f.cfg.SA.Trace != nil {
		return "", false
	}
	// The resolved scalarizer (f.scal) is fingerprinted instead of the
	// Objective pointer, so "nil objective in fixed-arch mode" and an
	// explicit objective.FixedArch() hash identically — they are the same
	// cost function.
	// The early-stop knobs truncate runs, changing results, so they are
	// fingerprinted; omitempty keeps fingerprints of non-early-stop runs
	// byte-identical to those of earlier releases.
	//
	// The scheduler and transfer fields follow the same normalization
	// discipline: the policy belongs to the kind, so the Kind field names
	// it; SchedSlice is emitted as its resolved value exactly when the
	// policy is ucb (slice length changes ucb trajectories; "default 8"
	// and "explicit 8" are the same run and must share a key), and
	// TransferKey names the warm-start donor so warm and cold runs never
	// collide in the cache.
	_, slice := f.schedPolicy()
	v := struct {
		Kind             string
		Objective        objective.Scalarizer
		FrontMetrics     []objective.Metric
		SA               saFields
		GA               gaFields
		Portfolio        []string
		SAChunk          int
		EarlyStopEpsilon float64 `json:",omitempty"`
		EarlyStopWindow  int     `json:",omitempty"`
		SchedSlice       int     `json:",omitempty"`
		TransferKey      string  `json:",omitempty"`
	}{
		Kind:             f.name,
		Objective:        f.scal,
		FrontMetrics:     f.cfg.FrontMetrics,
		SA:               saProject(&f.cfg.SA),
		GA:               gaProject(&f.cfg.GA),
		Portfolio:        f.cfg.Portfolio,
		SAChunk:          f.cfg.SAChunk,
		EarlyStopEpsilon: f.cfg.EarlyStopEpsilon,
		EarlyStopWindow:  f.cfg.EarlyStopWindow,
		SchedSlice:       slice,
		TransferKey:      f.WarmStartKey(),
	}
	b, err := json.Marshal(v)
	if err != nil {
		// All fields are plain data; marshalling cannot fail.
		panic(fmt.Sprintf("search: fingerprint marshal: %v", err))
	}
	return string(b), true
}
