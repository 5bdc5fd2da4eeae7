package search

import "fmt"

// definition is one registered strategy kind: its construction and the
// capabilities the factory needs to reason about it (composite kinds
// schedule member strategies; warmable kinds consume a transfer warm
// start). Names(), NewFactory, and the fingerprint all derive from this
// one table, so a new strategy registers exactly once and cannot drift out
// of any of them. No kind validates its instance: core.Prepare checks
// every kind's preconditions when the factory's instance is prepared.
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

func init() {
	register(definition{
		name:     "sa",
		warmable: true,
		build:    buildSA,
	})
	register(definition{
		name:  "ga",
		build: buildGA,
	})
	register(definition{
		name:  "list",
		build: buildList,
	})
	register(definition{
		name:  "brute",
		build: buildBrute,
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
