package anneal

import (
	"math"
	"math/rand"
	"testing"
)

// quadratic is a toy 1-D problem: minimize (x-3)² over integers scaled by
// step moves. Global minimum 0 at x=3.
type quadratic struct {
	x    float64
	best float64
	kept int
}

type quadMove struct {
	p     *quadratic
	delta float64
}

func (m *quadMove) Apply() bool { m.p.x += m.delta; return true }
func (m *quadMove) Revert()     { m.p.x -= m.delta }
func (m *quadMove) Kind() int   { return 0 }

func (q *quadratic) Cost() float64 { return (q.x - 3) * (q.x - 3) }
func (q *quadratic) Propose(rng *rand.Rand) Move {
	return &quadMove{p: q, delta: rng.NormFloat64()}
}
func (q *quadratic) KeepBest() { q.best = q.x; q.kept++ }

func TestRunConvergesOnQuadratic(t *testing.T) {
	for _, tc := range []struct {
		name string
		s    Schedule
	}{
		{"lam", NewLam(0.05, 200)},
	} {
		q := &quadratic{x: 50}
		opt := Options{Schedule: tc.s}
		opt.MaxIters = 8000
		opt.Seed = 1
		st := Run(q, opt)
		if st.BestCost > 0.5 {
			t.Errorf("%s: best cost %v after %d iters, want < 0.5", tc.name, st.BestCost, st.Iters)
		}
		if math.Abs(q.best-3) > 1 {
			t.Errorf("%s: kept best x=%v, want ≈3", tc.name, q.best)
		}
		if q.kept == 0 {
			t.Errorf("%s: KeepBest never called", tc.name)
		}
	}
}

func TestRunDeterministicForSeed(t *testing.T) {
	run := func() Stats {
		q := &quadratic{x: 20}
		opt := Options{Schedule: NewLam(0.05, 100)}
		opt.MaxIters = 2000
		opt.Seed = 42
		return Run(q, opt)
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("runs differ: %+v vs %+v", a, b)
	}
}

func TestRunTraceStream(t *testing.T) {
	q := &quadratic{x: 10}
	opt := Options{Schedule: NewLam(0.05, 50)}
	opt.MaxIters = 300
	var n int
	lastIter := -1
	opt.Trace = func(o Observation) {
		if o.Iter != lastIter+1 {
			t.Fatalf("trace iteration jumped from %d to %d", lastIter, o.Iter)
		}
		lastIter = o.Iter
		if o.Best > o.Cost+1e9 {
			t.Fatal("best worse than current cost")
		}
		n++
	}
	Run(q, opt)
	if n != 300 {
		t.Fatalf("trace called %d times, want 300", n)
	}
}

// infeasibleProblem returns nil moves half the time and infeasible moves
// the other half; the annealer must count them without crashing.
type infeasibleProblem struct{ quadratic }

type infeasibleMove struct{}

func (infeasibleMove) Apply() bool { return false }
func (infeasibleMove) Revert()     { panic("revert of unapplied move") }
func (infeasibleMove) Kind() int   { return 1 }

func (p *infeasibleProblem) Propose(rng *rand.Rand) Move {
	if rng.Intn(2) == 0 {
		return nil
	}
	return infeasibleMove{}
}

func TestRunCountsInfeasible(t *testing.T) {
	p := &infeasibleProblem{quadratic{x: 5}}
	opt := Options{Schedule: NewLam(0.05, 10)}
	opt.MaxIters = 100
	st := Run(p, opt)
	if st.Infeasible != 100 {
		t.Fatalf("infeasible = %d, want 100", st.Infeasible)
	}
	if st.Accepted != 0 || st.Rejected != 0 {
		t.Fatalf("unexpected accepts/rejects: %+v", st)
	}
}

func TestLamWarmupIsInfiniteTemperature(t *testing.T) {
	l := NewLam(0.01, 100)
	for i := 0; i < 99; i++ {
		l.Observe(float64(i%10), true)
		if !math.IsInf(l.Temperature(), 1) {
			t.Fatalf("temperature finite during warmup at obs %d", i)
		}
	}
	l.Observe(5, true) // 100th observation ends warmup
	if math.IsInf(l.Temperature(), 1) {
		t.Fatal("temperature still infinite after warmup")
	}
	if l.Temperature() <= 0 {
		t.Fatal("non-positive post-warmup temperature")
	}
}

func TestLamCoolsUnderStationaryCosts(t *testing.T) {
	l := NewLam(0.05, 100)
	r := rand.New(rand.NewSource(18))
	for i := 0; i < 100; i++ {
		l.Observe(10+r.Float64(), true)
	}
	t0 := l.Temperature()
	for i := 0; i < 3000; i++ {
		l.Observe(10+r.Float64(), r.Float64() < 0.6)
	}
	if l.Temperature() >= t0 {
		t.Fatalf("temperature did not decrease: %v -> %v", t0, l.Temperature())
	}
}

func TestLamFreezeDetection(t *testing.T) {
	l := NewLam(0.05, 10)
	r := rand.New(rand.NewSource(19))
	for i := 0; i < 10; i++ {
		l.Observe(r.Float64(), true)
	}
	if l.Done() {
		t.Fatal("done immediately after warmup")
	}
	// Thousands of rejections: acceptance EWMA collapses, Done trips.
	for i := 0; i < 10000 && !l.Done(); i++ {
		l.Observe(1, false)
	}
	if !l.Done() {
		t.Fatal("freeze not detected after sustained rejection")
	}
}

func TestLamRhoShape(t *testing.T) {
	if lamRho(0) != 0 || lamRho(1) != 0 {
		t.Fatal("rho must vanish at the extremes")
	}
	// Maximum near 0.44.
	best, bestA := 0.0, 0.0
	for a := 0.01; a < 1; a += 0.01 {
		if r := lamRho(a); r > best {
			best, bestA = r, a
		}
	}
	if math.Abs(bestA-LamTargetAcceptance) > 0.02 {
		t.Fatalf("rho maximized at %v, want ≈0.44", bestA)
	}
}

func TestAdaptiveSelectorShiftsWeight(t *testing.T) {
	s := NewAdaptiveSelector([]float64{1, 1})
	// Kind 0 always rejected; kind 1 accepted half the time.
	for i := 0; i < 2000; i++ {
		s.Observe(0, false)
		s.Observe(1, i%2 == 0)
	}
	r := rand.New(rand.NewSource(21))
	counts := make([]int, 2)
	for i := 0; i < 20000; i++ {
		counts[s.Pick(r)]++
	}
	if counts[1] <= counts[0] {
		t.Fatalf("informative kind not favoured: %v", counts)
	}
	if counts[0] == 0 {
		t.Fatal("starved kind despite floor")
	}
}

func TestAdaptiveSelectorRespectsZeroBase(t *testing.T) {
	s := NewAdaptiveSelector([]float64{0, 1})
	r := rand.New(rand.NewSource(22))
	for i := 0; i < 1000; i++ {
		if s.Pick(r) == 0 {
			t.Fatal("zero-base kind drawn")
		}
	}
	s.Observe(-1, true) // out of range must be ignored
	s.Observe(5, true)
}

func TestRunPanicsWithoutSchedule(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("missing schedule accepted")
		}
	}()
	Run(&quadratic{}, Options{})
}

// TestRunnerStepEquivalence pins the resumable Runner's contract: stepping
// a run to exhaustion in any chunk size is bit-identical to a single Run.
func TestRunnerStepEquivalence(t *testing.T) {
	run := func() Stats {
		q := &quadratic{x: 40}
		opt := Options{Schedule: NewLam(0.05, 100)}
		opt.MaxIters = 3000
		opt.Seed = 9
		return Run(q, opt)
	}
	want := run()
	for _, chunk := range []int{1, 7, 64, 1000} {
		q := &quadratic{x: 40}
		opt := Options{Schedule: NewLam(0.05, 100)}
		opt.MaxIters = 3000
		opt.Seed = 9
		r := NewRunner(q, opt)
		for r.Step(chunk) {
		}
		if !r.Done() {
			t.Fatalf("chunk %d: runner not done after exhaustion", chunk)
		}
		if got := r.Stats(); got != want {
			t.Fatalf("chunk %d: stepped stats %+v != Run stats %+v", chunk, got, want)
		}
	}
}

// TestRunnerStepZeroAndAfterDone: a zero-budget step is a no-op, and
// stepping a finished run stays a no-op.
func TestRunnerStepAfterDone(t *testing.T) {
	q := &quadratic{x: 5}
	opt := Options{Schedule: NewLam(0.05, 10)}
	opt.MaxIters = 50
	r := NewRunner(q, opt)
	if !r.Step(0) {
		t.Fatal("zero-budget step must report the run as continuable")
	}
	for r.Step(7) {
	}
	st := r.Stats()
	if r.Step(10) {
		t.Fatal("stepping a finished run must return false")
	}
	if got := r.Stats(); got != st {
		t.Fatalf("stepping a finished run changed stats: %+v vs %+v", got, st)
	}
}
