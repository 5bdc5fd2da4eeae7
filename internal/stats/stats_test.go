package stats

import (
	"math"
	"math/rand"
	"testing"
)

func almostEq(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestWelfordKnownValues(t *testing.T) {
	var w Welford
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		w.Add(x)
	}
	if w.N() != 8 {
		t.Fatalf("N = %d", w.N())
	}
	if !almostEq(w.Mean(), 5, 1e-12) {
		t.Fatalf("Mean = %v", w.Mean())
	}
	if !almostEq(w.Var(), 4, 1e-12) {
		t.Fatalf("Var = %v", w.Var())
	}
	if !almostEq(w.StdDev(), 2, 1e-12) {
		t.Fatalf("StdDev = %v", w.StdDev())
	}
	if !almostEq(w.SampleVar(), 32.0/7.0, 1e-12) {
		t.Fatalf("SampleVar = %v", w.SampleVar())
	}
}

func TestWelfordDegenerate(t *testing.T) {
	var w Welford
	if w.Mean() != 0 || w.Var() != 0 || w.SampleVar() != 0 {
		t.Fatal("fresh Welford not zero")
	}
	w.Add(42)
	if w.Var() != 0 {
		t.Fatal("single observation should have zero variance")
	}
	w.Reset()
	if w.N() != 0 {
		t.Fatal("Reset failed")
	}
}

func TestWelfordMatchesDirect(t *testing.T) {
	r := rand.New(rand.NewSource(14))
	xs := make([]float64, 500)
	var w Welford
	var sum float64
	for i := range xs {
		xs[i] = r.NormFloat64()*3 + 10
		w.Add(xs[i])
		sum += xs[i]
	}
	mean := sum / float64(len(xs))
	var ss float64
	for _, x := range xs {
		ss += (x - mean) * (x - mean)
	}
	if !almostEq(w.Mean(), mean, 1e-9) {
		t.Fatalf("mean %v vs %v", w.Mean(), mean)
	}
	if !almostEq(w.Var(), ss/float64(len(xs)), 1e-9) {
		t.Fatalf("var %v vs %v", w.Var(), ss/float64(len(xs)))
	}
}

func TestEWMABasics(t *testing.T) {
	e := NewEWMA(0.5)
	if e.Initialized() {
		t.Fatal("fresh EWMA initialized")
	}
	e.Add(10)
	if e.Value() != 10 {
		t.Fatalf("first obs should initialize, got %v", e.Value())
	}
	e.Add(20)
	if !almostEq(e.Value(), 15, 1e-12) {
		t.Fatalf("Value = %v, want 15", e.Value())
	}
	e.Set(3)
	if e.Value() != 3 {
		t.Fatal("Set failed")
	}
}

func TestEWMAConvergesToConstant(t *testing.T) {
	e := NewEWMA(0.1)
	for i := 0; i < 500; i++ {
		e.Add(7)
	}
	if !almostEq(e.Value(), 7, 1e-9) {
		t.Fatalf("Value = %v", e.Value())
	}
}

func TestEWMAPanicsOnBadAlpha(t *testing.T) {
	for _, a := range []float64{0, -1, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("alpha %v accepted", a)
				}
			}()
			NewEWMA(a)
		}()
	}
}

func TestEWMomentsTracksDistribution(t *testing.T) {
	r := rand.New(rand.NewSource(15))
	m := NewEWMoments(0.005)
	for i := 0; i < 50_000; i++ {
		m.Add(r.NormFloat64()*2 + 5)
	}
	if !almostEq(m.Mean(), 5, 0.3) {
		t.Fatalf("EW mean = %v, want ≈5", m.Mean())
	}
	if !almostEq(m.StdDev(), 2, 0.4) {
		t.Fatalf("EW stddev = %v, want ≈2", m.StdDev())
	}
}

func TestEWMomentsDegenerate(t *testing.T) {
	m := NewEWMoments(0.1)
	if m.Initialized() {
		t.Fatal("fresh moments initialized")
	}
	m.Add(4)
	if m.Mean() != 4 || m.Var() != 0 {
		t.Fatal("first observation handling wrong")
	}
}

func TestSummaryMoments(t *testing.T) {
	var s Summary
	if s.Mean() != 0 || s.Min() != 0 || s.Max() != 0 || s.Quantile(0.5) != 0 {
		t.Fatal("empty summary not zero-valued")
	}
	for _, x := range []float64{5, 1, 4, 2, 3} {
		s.Add(x)
	}
	if s.N() != 5 || s.Mean() != 3 || s.Min() != 1 || s.Max() != 5 {
		t.Fatalf("moments wrong: n=%d mean=%v min=%v max=%v", s.N(), s.Mean(), s.Min(), s.Max())
	}
	if s.Median() != 3 {
		t.Fatalf("median = %v, want 3", s.Median())
	}
	if q := s.Quantile(0); q != 1 {
		t.Fatalf("q0 = %v, want 1", q)
	}
	if q := s.Quantile(1); q != 5 {
		t.Fatalf("q1 = %v, want 5", q)
	}
	// Interpolated quantile: q=0.25 over 5 sorted samples sits at index 1.
	if q := s.Quantile(0.25); q != 2 {
		t.Fatalf("q0.25 = %v, want 2", q)
	}
	// Between order statistics: q=0.375 is halfway between 2 and 3.
	if q := s.Quantile(0.375); math.Abs(q-2.5) > 1e-12 {
		t.Fatalf("q0.375 = %v, want 2.5", q)
	}
}

func TestSummaryInterleavedAdds(t *testing.T) {
	// Quantile sorts the retained sample lazily; later Adds must re-sort.
	var s Summary
	s.Add(10)
	s.Add(1)
	if s.Median() != 5.5 {
		t.Fatalf("median = %v, want 5.5", s.Median())
	}
	s.Add(100)
	if s.Median() != 10 {
		t.Fatalf("median after add = %v, want 10", s.Median())
	}
	s.Reset()
	if s.N() != 0 || s.Quantile(0.5) != 0 {
		t.Fatal("reset did not clear")
	}
	s.Add(-2)
	if s.Min() != -2 || s.Max() != -2 || s.Mean() != -2 {
		t.Fatal("post-reset observation mishandled")
	}
}

func TestSummaryMatchesWelford(t *testing.T) {
	var s Summary
	var w Welford
	for i := 0; i < 1000; i++ {
		x := math.Sin(float64(i)) * float64(i%17)
		s.Add(x)
		w.Add(x)
	}
	if s.Mean() != w.Mean() || s.StdDev() != w.StdDev() {
		t.Fatal("Summary moments diverge from Welford")
	}
}
