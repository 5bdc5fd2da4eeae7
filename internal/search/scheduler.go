package search

import (
	"math"
	"math/rand"

	"repro/internal/pareto"
	"repro/internal/sched"
)

// Scheduling policies of the composite strategies ("portfolio", "bandit").
const (
	// SchedRR is blind round-robin: each Step advances the next
	// not-yet-done member by one of its own steps (the pre-scheduler
	// portfolio behavior, preserved bit-identically).
	SchedRR = "rr"
	// SchedUCB allocates slices of consecutive member steps by
	// deterministic UCB1 over the observed best-cost improvement rate.
	SchedUCB = "ucb"
)

// DefaultSchedSlice is the number of consecutive member steps in one UCB1
// slice when Config.SchedSlice is unset. A slice has to be long enough for
// an arm's improvement signal to be visible above its step granularity
// (one SA chunk, one GA generation, one list decode) yet short enough that
// the bandit can reallocate many times within a typical step budget.
const DefaultSchedSlice = 8

// ArmStats is the per-member telemetry of a scheduler run.
type ArmStats struct {
	// Name is the member strategy name ("sa", "ga", "list", "brute").
	Name string `json:"name"`
	// Slices counts budget slices allocated to this arm (under rr every
	// step is its own slice).
	Slices int `json:"slices"`
	// Steps counts member steps this arm consumed.
	Steps int `json:"steps"`
	// Reward is the arm's accumulated slice reward — the normalized global
	// best-cost improvement observed while this arm held the budget.
	Reward float64 `json:"reward"`
}

// SchedStats is the scheduler/transfer telemetry carried by Stats (and,
// through the runner, by snapshots and bench reports). Nil on strategies
// that neither schedule members nor consumed a warm start.
type SchedStats struct {
	// Policy is the scheduling policy that drove the run ("rr", "ucb";
	// empty for a plain warm-started strategy).
	Policy string `json:"policy,omitempty"`
	// Slice is the configured steps-per-slice (ucb only).
	Slice int `json:"slice,omitempty"`
	// Arms is the per-member telemetry, in member order.
	Arms []ArmStats `json:"arms,omitempty"`
	// TransferKey is the memo key of the warm-start donor, when one was
	// injected.
	TransferKey string `json:"transferKey,omitempty"`
	// TransferCost is the donor incumbent's scalarized cost under this
	// run's objective.
	TransferCost float64 `json:"transferCost,omitempty"`
}

// Clone returns a deep copy.
func (s *SchedStats) Clone() *SchedStats {
	if s == nil {
		return nil
	}
	c := *s
	c.Arms = append([]ArmStats(nil), s.Arms...)
	return &c
}

// WarmStart is a transfer-injected incumbent: the best mapping (and
// optionally the Pareto front) of a donor run over the same application
// and architecture. Key is the donor's memo key — it is folded into the
// factory fingerprint, so warm-started results remain pure functions of
// their fingerprinted inputs and never collide with cold runs in the
// cache.
type WarmStart struct {
	// Key identifies the donor result (memo key hex). Required.
	Key string
	// Cost is the donor's cost under its own objective (telemetry only;
	// the incumbent is re-evaluated under the receiving run's objective).
	Cost float64
	// Best is the donor's best mapping. Required.
	Best *sched.Mapping
	// Eval is the donor's schedule evaluation of Best.
	Eval sched.Result
	// Front is the donor's Pareto archive (optional; dropped when its
	// dimensionality differs from the receiving run's FrontMetrics).
	Front *pareto.NArchive
}

// schedArm is one member strategy plus its budget accounting.
type schedArm struct {
	s       Strategy
	done    bool
	steps   int
	slices  int
	reward  float64 // settled slice rewards
	accrual float64 // reward accrued in the in-progress slice
}

// scheduler races member strategies under one shared step budget. Two
// policies share the chassis: "rr" replicates the original round-robin
// portfolio bit for bit, while "ucb" runs a deterministic UCB1 bandit —
// budget slices go to the arm with the best upper confidence bound on its
// observed improvement rate. Because members are driven from one goroutine
// with no wall-clock input, a run is a pure function of its seed (ties in
// the UCB score are broken by a PRNG derived from that seed), so results
// stay reproducible and worker-count independent.
type scheduler struct {
	name      string // strategy kind ("portfolio" or "bandit")
	policy    string // SchedRR or SchedUCB
	slice     int    // member steps per UCB slice
	warm      *WarmStart
	incumbent *Outcome // warm incumbent under this run's objective (nil without transfer)

	arms      []schedArm
	rng       *rand.Rand
	next      int // rr rotation cursor
	cur       int // ucb: arm holding the in-progress slice (-1 between slices)
	sliceLeft int
	steps     int
	best      float64 // global best cost observed (incumbent included)
}

func (p *scheduler) Name() string { return p.name }

// Init seeds every member with a distinct stream derived from the run
// seed, so members never replay each other's randomness, and derives the
// tie-break PRNG from the same seed.
func (p *scheduler) Init(seed int64) error {
	p.next, p.cur, p.sliceLeft, p.steps = 0, -1, 0, 0
	p.rng = rand.New(rand.NewSource(seed ^ 0x5deece66d))
	p.best = math.Inf(1)
	if p.incumbent != nil {
		p.best = p.incumbent.Cost
	}
	for j := range p.arms {
		a := &p.arms[j]
		a.done, a.steps, a.slices, a.reward, a.accrual = false, 0, 0, 0, 0
		if err := a.s.Init(seed + int64(j)*0x9e3779b9); err != nil {
			return err
		}
	}
	return nil
}

func (p *scheduler) Step() (bool, error) {
	if p.policy == SchedUCB {
		return p.stepUCB()
	}
	return p.stepRR()
}

// stepRR is the original portfolio rotation: advance the next
// not-yet-done member by one step. Every step settles as its own slice so
// the telemetry stays comparable across policies.
func (p *scheduler) stepRR() (bool, error) {
	for probe := 0; probe < len(p.arms); probe++ {
		j := p.next
		p.next = (p.next + 1) % len(p.arms)
		a := &p.arms[j]
		if a.done {
			continue
		}
		p.steps++
		more, err := a.s.Step()
		if err != nil {
			return false, err
		}
		a.steps++
		a.slices++
		a.reward += p.observe(j)
		if !more {
			a.done = true
		}
		return p.anyLeft(), nil
	}
	return false, nil
}

// stepUCB advances the arm holding the current slice, opening a new slice
// (cold-start arms first in member order, then the best UCB1 score) when
// none is in progress.
func (p *scheduler) stepUCB() (bool, error) {
	j := p.cur
	if j < 0 || p.arms[j].done || p.sliceLeft <= 0 {
		p.settle()
		j = p.pickArm()
		if j < 0 {
			return false, nil
		}
		p.cur, p.sliceLeft = j, p.slice
	}
	a := &p.arms[j]
	p.steps++
	a.steps++
	p.sliceLeft--
	more, err := a.s.Step()
	if err != nil {
		return false, err
	}
	a.accrual += p.observe(j)
	if !more {
		a.done = true
	}
	if p.sliceLeft == 0 || a.done {
		p.settle()
	}
	return p.anyLeft(), nil
}

// observe reads arm j's best cost after a step and returns the slice
// reward it earned: the global best-cost improvement, normalized by the
// previous best's magnitude and clamped to [0,1] (discovering the first
// feasible solution earns the full reward).
func (p *scheduler) observe(j int) float64 {
	bc := p.arms[j].s.Stats().BestCost
	if bc >= p.best {
		return 0
	}
	prev := p.best
	p.best = bc
	if math.IsInf(prev, 1) {
		return 1
	}
	denom := math.Abs(prev)
	if denom < 1e-12 {
		return 1
	}
	r := (prev - bc) / denom
	if r > 1 {
		r = 1
	}
	return r
}

// settle closes the in-progress slice, crediting its accrued reward
// (clamped to [0,1] so one slice never dominates the mean) to the arm.
func (p *scheduler) settle() {
	if p.cur < 0 {
		return
	}
	a := &p.arms[p.cur]
	if p.sliceLeft < p.slice { // the slice did at least one step
		a.slices++
		r := a.accrual
		if r > 1 {
			r = 1
		}
		a.reward += r
	}
	a.accrual = 0
	p.cur, p.sliceLeft = -1, 0
}

// pickArm chooses the arm for the next slice: first any live arm that has
// never held one (in member order), then the highest UCB1 score
// mean-reward + sqrt(2 ln N / n). Exact score ties — common when no arm
// has earned reward yet — are broken by the seeded PRNG, never by map
// order or wall-clock, keeping the arm sequence a pure function of the
// seed. Returns -1 when every arm is done.
func (p *scheduler) pickArm() int {
	for j := range p.arms {
		if !p.arms[j].done && p.arms[j].slices == 0 {
			return j
		}
	}
	total := 0
	for j := range p.arms {
		total += p.arms[j].slices
	}
	lt := math.Log(float64(total))
	best := -1
	var bestScore float64
	var ties []int
	for j := range p.arms {
		a := &p.arms[j]
		if a.done {
			continue
		}
		score := a.reward/float64(a.slices) + math.Sqrt(2*lt/float64(a.slices))
		switch {
		case best < 0 || score > bestScore:
			best, bestScore = j, score
			ties = append(ties[:0], j)
		case score == bestScore:
			ties = append(ties, j)
		}
	}
	if best < 0 {
		return -1
	}
	if len(ties) > 1 {
		return ties[p.rng.Intn(len(ties))]
	}
	return best
}

func (p *scheduler) anyLeft() bool {
	for j := range p.arms {
		if !p.arms[j].done {
			return true
		}
	}
	return false
}

// Best returns the lowest-cost outcome among the incumbent and the
// members (the incumbent seeds the comparison, so members must strictly
// beat it; among members, ties keep the earliest) with the donor front
// and the members' fronts merged in member order.
func (p *scheduler) Best() *Outcome {
	var best *Outcome
	var merged *pareto.NArchive
	if p.incumbent != nil {
		c := *p.incumbent
		best = &c
		if p.incumbent.Front != nil {
			merged = p.incumbent.Front.Clone()
		}
	}
	for j := range p.arms {
		out := p.arms[j].s.Best()
		if out == nil {
			continue
		}
		if out.Front != nil {
			if merged == nil {
				merged = pareto.NewNArchive(out.Front.Dims())
			}
			if merged.Dims() == out.Front.Dims() {
				merged.Merge(out.Front)
			}
		}
		if best == nil || out.Cost < best.Cost {
			c := *out
			best = &c
		}
	}
	if best == nil {
		return nil
	}
	best.Front = merged
	return best
}

func (p *scheduler) Stats() Stats {
	st := Stats{Steps: p.steps, BestCost: math.Inf(1), Done: !p.anyLeft()}
	if p.incumbent != nil {
		st.BestCost = p.incumbent.Cost
	}
	for j := range p.arms {
		ms := p.arms[j].s.Stats()
		st.Evaluations += ms.Evaluations
		st.Speculated += ms.Speculated
		st.Discarded += ms.Discarded
		for k := range ms.MoveStats.Proposed {
			st.MoveStats.Proposed[k] += ms.MoveStats.Proposed[k]
			st.MoveStats.Accepted[k] += ms.MoveStats.Accepted[k]
		}
		if ms.BestCost < st.BestCost {
			st.BestCost = ms.BestCost
		}
	}
	st.Sched = p.schedStats()
	return st
}

// schedStats snapshots the per-arm accounting. Reward includes the
// in-progress slice's clamped accrual so mid-run probes see live numbers.
func (p *scheduler) schedStats() *SchedStats {
	ss := &SchedStats{Policy: p.policy, Arms: make([]ArmStats, len(p.arms))}
	if p.policy == SchedUCB {
		ss.Slice = p.slice
	}
	for j := range p.arms {
		a := &p.arms[j]
		r := a.accrual
		if r > 1 {
			r = 1
		}
		ss.Arms[j] = ArmStats{Name: a.s.Name(), Slices: a.slices, Steps: a.steps, Reward: a.reward + r}
	}
	if p.warm != nil {
		ss.TransferKey = p.warm.Key
		if p.incumbent != nil {
			ss.TransferCost = p.incumbent.Cost
		}
	}
	return ss
}
