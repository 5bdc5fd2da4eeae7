package scenario

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/scenario/archgen"
	"repro/internal/search"
)

// Budget is a scenario's per-strategy search allowance. It scales with the
// scenario's size class so that the full matrix stays tractable: the
// annealer gets SAIters iterations, the GA GAPop×GAGens fitness calls, and
// every strategy is additionally capped at MaxSteps driver steps (0 = run
// to exhaustion — used by list, whose sweep is finite and cheap).
type Budget struct {
	// SAIters bounds the annealing run (with Warmup infinite-temperature
	// iterations inside it) and QuenchIters the frozen descent.
	SAIters, Warmup, QuenchIters int
	// GAPop and GAGens bound the genetic baseline.
	GAPop, GAGens int
	// MaxSteps caps the unified driver's Step calls per run (0 = none).
	MaxSteps int
	// Runs is the default number of independent runs per (scenario,
	// strategy) cell; dsebench's -runs overrides it.
	Runs int
}

// Scenario is one named, versioned point of the corpus: a deterministic
// (application, architecture, objective configuration, strategy budget)
// quadruple. Name and Seed identify it; regenerating a scenario always
// yields bit-identical models (pinned by the golden digest test).
type Scenario struct {
	// Name is the registry key, "<family>-<variant>".
	Name string
	// Family groups scenarios by application structure ("paper",
	// "pipeline", "forkjoin", "layered", "sdf", "reconfig").
	Family string
	// Size is the scale class of the instance.
	Size apps.Size
	// Seed drives both the application and the architecture generation.
	Seed int64
	// Stresses says in one line what the scenario exercises.
	Stresses string
	// DeadlineMS is the real-time constraint in milliseconds (0 = none);
	// it configures the shared objective's deadline report.
	DeadlineMS float64
	// Budget is the scenario's default search allowance.
	Budget Budget

	// buildApp generates the application from the scenario's rng.
	buildApp func(rng *rand.Rand) (*model.App, error)
	// arch is the architecture generator configuration, used when
	// buildArch is nil.
	arch archgen.Config
	// buildArch, when non-nil, overrides archgen — the paper family uses
	// it to pin the exact published ARM922+Virtex-E constants.
	buildArch func(rng *rand.Rand) (*model.Arch, error)

	// prep holds the process-wide prepared instance (see Prepared).
	// Register allocates it: Register takes the scenario by value, and a
	// sync.Once must not be copied.
	prep *sharedInstance
}

// sharedInstance is a scenario's prepared instance, built once.
type sharedInstance struct {
	once sync.Once
	p    *core.Prepared
	err  error
}

// appRng and archRng derive independent deterministic streams from the
// scenario seed, so app and arch generation cannot perturb each other.
func (s *Scenario) appRng() *rand.Rand  { return rand.New(rand.NewSource(s.Seed)) }
func (s *Scenario) archRng() *rand.Rand { return rand.New(rand.NewSource(s.Seed ^ 0x5ca1ab1e)) }

// App generates the scenario's application. Successive calls return
// bit-identical graphs. The application is named after the scenario:
// generator names encode only structure ("layered-40"), so two scenarios
// drawing the same family at the same size from different seeds would
// otherwise produce distinct graphs with identical names.
func (s *Scenario) App() (*model.App, error) {
	app, err := s.buildApp(s.appRng())
	if err != nil {
		return nil, fmt.Errorf("scenario %s: app: %w", s.Name, err)
	}
	app.Name = s.Name
	return app, nil
}

// Arch generates the scenario's architecture. Successive calls return
// bit-identical models.
func (s *Scenario) Arch() (*model.Arch, error) {
	var (
		arch *model.Arch
		err  error
	)
	if s.buildArch != nil {
		arch, err = s.buildArch(s.archRng())
	} else {
		arch, err = archgen.Generate(s.archRng(), s.arch)
	}
	if err != nil {
		return nil, fmt.Errorf("scenario %s: arch: %w", s.Name, err)
	}
	return arch, nil
}

// Instantiate generates both halves of the scenario, fresh models that
// the caller owns.
func (s *Scenario) Instantiate() (*model.App, *model.Arch, error) {
	app, err := s.App()
	if err != nil {
		return nil, nil, err
	}
	arch, err := s.Arch()
	if err != nil {
		return nil, nil, err
	}
	return app, arch, nil
}

// Prepared returns the scenario's process-wide prepared instance. The
// first call instantiates, validates and prepares the models; every later
// call, through any alias, returns the same pointer. The instance and its
// models are shared and read-only: a caller that wants models of its own
// calls Instantiate.
func (s *Scenario) Prepared() (*core.Prepared, error) {
	s.prep.once.Do(func() {
		app, arch, err := s.Instantiate()
		if err == nil {
			s.prep.p, err = core.Prepare(app, arch)
		}
		if err != nil {
			s.prep.err = fmt.Errorf("scenario %s: %w", s.Name, err)
		}
	})
	return s.prep.p, s.prep.err
}

// Deadline returns the real-time constraint as a model.Time (0 = none).
func (s *Scenario) Deadline() model.Time { return model.FromMillis(s.DeadlineMS) }

// SearchConfig translates the scenario's objective configuration and
// budget into a unified-engine configuration: the paper-default shared
// objective with the scenario deadline, an area/makespan front, and the
// budgeted SA/GA parameters.
func (s *Scenario) SearchConfig() search.Config {
	cfg := search.DefaultConfig()
	cfg.SA.Deadline = s.Deadline()
	if b := s.Budget; b.SAIters > 0 {
		cfg.SA.MaxIters = b.SAIters
		cfg.SA.Warmup = b.Warmup
		cfg.SA.QuenchIters = b.QuenchIters
	}
	if b := s.Budget; b.GAPop > 0 {
		cfg.GA.Population = b.GAPop
		cfg.GA.Generations = b.GAGens
	}
	return cfg
}

var registry = map[string]*Scenario{}

// aliases maps convenience names — the task-count shorthand used by the
// service docs and smoke jobs — onto registry keys. Lookup resolves them;
// Names/All list only canonical names so the catalog stays duplicate-free.
var aliases = map[string]string{
	"fig2-small":  "paper-small-device",
	"layered-20":  "layered-small",
	"layered-40":  "layered-medium",
	"layered-80":  "layered-large",
	"layered-160": "layered-xl",
}

// Register adds a scenario to the corpus; it panics on a duplicate or
// half-initialized entry (registration is an init-time programming act).
func Register(s Scenario) {
	if s.Name == "" || s.Family == "" || s.buildApp == nil {
		panic("scenario: Register with missing name, family, or app builder")
	}
	if _, dup := registry[s.Name]; dup {
		panic("scenario: duplicate scenario " + s.Name)
	}
	s.prep = &sharedInstance{}
	registry[s.Name] = &s
}

// Lookup resolves a registered scenario by canonical name or alias.
func Lookup(name string) (*Scenario, bool) {
	if canon, ok := aliases[name]; ok {
		name = canon
	}
	s, ok := registry[name]
	return s, ok
}

// Names lists the registered scenario names, sorted.
func Names() []string {
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// All lists the registered scenarios sorted by (family, size, name) — the
// catalog order used by dsebench -list and the README table.
func All() []*Scenario {
	out := make([]*Scenario, 0, len(registry))
	for _, s := range registry {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Family != out[j].Family {
			return out[i].Family < out[j].Family
		}
		if out[i].Size != out[j].Size {
			return out[i].Size < out[j].Size
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// Families lists the distinct scenario families, sorted.
func Families() []string {
	seen := map[string]bool{}
	for _, s := range registry {
		seen[s.Family] = true
	}
	out := make([]string, 0, len(seen))
	for f := range seen {
		out = append(out, f)
	}
	sort.Strings(out)
	return out
}

// Select resolves a comma-separated list of scenario names and/or family
// names into catalog-ordered scenarios; the empty selector means the whole
// corpus. Unknown tokens are an error.
func Select(selector string) ([]*Scenario, error) {
	if selector == "" {
		return All(), nil
	}
	wanted := map[string]bool{}
	fams := map[string]bool{}
	for _, f := range Families() {
		fams[f] = true
	}
	for _, tok := range SplitComma(selector) {
		if s, ok := Lookup(tok); ok { // canonical names and aliases alike
			wanted[s.Name] = true
			continue
		}
		if fams[tok] {
			for _, s := range registry {
				if s.Family == tok {
					wanted[s.Name] = true
				}
			}
			continue
		}
		return nil, fmt.Errorf("scenario: unknown scenario or family %q (have scenarios %v, families %v)", tok, Names(), Families())
	}
	var out []*Scenario
	for _, s := range All() {
		if wanted[s.Name] {
			out = append(out, s)
		}
	}
	return out, nil
}

// SplitComma splits a comma-separated flag value, trimming whitespace
// and dropping empty tokens; Select and dsebench's list flags share it so
// every selector tolerates the same spacing.
func SplitComma(s string) []string {
	var out []string
	for _, tok := range strings.Split(s, ",") {
		if tok = strings.TrimSpace(tok); tok != "" {
			out = append(out, tok)
		}
	}
	return out
}
