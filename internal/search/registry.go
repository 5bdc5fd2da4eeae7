package search

import (
	"fmt"

	"repro/internal/core"
)

// definition is one registered strategy kind: its construction, its
// per-instance validation, and the capabilities the factory needs to
// reason about it (composite kinds schedule member strategies; warmable
// kinds consume a transfer warm start). Names(), NewFactory, and the
// fingerprint all derive from this one table, so a new strategy registers
// exactly once and cannot drift out of any of them.
type definition struct {
	name string
	// composite marks scheduler kinds that drive member strategies
	// (cfg.Portfolio) instead of searching themselves. Composites cannot
	// nest.
	composite bool
	// warmable marks kinds that can consume a WarmStart (see
	// Factory.SetWarmStart); for the rest a warm start is a silent no-op
	// and must not skew fingerprints.
	warmable bool
	// policy is a composite kind's scheduling policy: SchedRR for
	// "portfolio", SchedUCB for "bandit".
	policy string
	// validate checks one instance (per member for composites) at factory
	// construction, hoisting the work out of the per-run path.
	validate func(f *Factory) error
	// build constructs a fresh, uninitialized instance for the factory.
	build func(f *Factory) (Strategy, error)
}

var (
	registry = map[string]*definition{}
	regOrder []string
)

// register adds a strategy definition; duplicate names are a programming
// error. Registration order defines the order of Names().
func register(d definition) {
	if _, dup := registry[d.name]; dup {
		panic(fmt.Sprintf("search: strategy %q registered twice", d.name))
	}
	dc := d
	registry[d.name] = &dc
	regOrder = append(regOrder, d.name)
}

// Names lists the registered strategy names accepted by NewFactory, in
// registration order.
func Names() []string {
	out := make([]string, len(regOrder))
	copy(out, regOrder)
	return out
}

// validateSA hoists the SA precedence-closure preparation into the
// factory (shared by every SA member the factory builds).
func validateSA(f *Factory) error {
	if f.prep == nil {
		prep, err := core.Prepare(f.app, f.arch)
		if err != nil {
			return err
		}
		f.prep = prep
	}
	return nil
}

// validateDecoded covers the strategies that run mappings through the
// list-scheduling decoder (ga, list, brute): they need validated models
// and at least one processor.
func validateDecoded(name string) func(f *Factory) error {
	return func(f *Factory) error {
		if err := f.app.Validate(); err != nil {
			return err
		}
		if err := f.arch.Validate(); err != nil {
			return err
		}
		if len(f.arch.Processors) == 0 {
			return fmt.Errorf("search: strategy %q needs at least one processor", name)
		}
		return nil
	}
}

func init() {
	register(definition{
		name:     "sa",
		warmable: true,
		validate: validateSA,
		build:    buildSA,
	})
	register(definition{
		name:     "ga",
		validate: validateDecoded("ga"),
		build:    buildGA,
	})
	register(definition{
		name:     "list",
		validate: validateDecoded("list"),
		build:    buildList,
	})
	register(definition{
		name:     "brute",
		validate: validateDecoded("brute"),
		build:    buildBrute,
	})
	register(definition{
		name:      "portfolio",
		composite: true,
		warmable:  true,
		policy:    SchedRR,
		build:     buildScheduler,
	})
	register(definition{
		name:      "bandit",
		composite: true,
		warmable:  true,
		policy:    SchedUCB,
		build:     buildScheduler,
	})
}
