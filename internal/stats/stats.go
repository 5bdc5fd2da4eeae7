package stats

import (
	"math"
	"sort"
)

// Welford accumulates exact running mean and variance using Welford's
// numerically stable recurrence.
type Welford struct {
	n    int64
	mean float64
	m2   float64
}

// Add incorporates one observation.
func (w *Welford) Add(x float64) {
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// N returns the number of observations.
func (w *Welford) N() int64 { return w.n }

// Mean returns the running mean (0 before any observation).
func (w *Welford) Mean() float64 { return w.mean }

// Var returns the population variance (0 before two observations).
func (w *Welford) Var() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n)
}

// SampleVar returns the sample (Bessel-corrected) variance.
func (w *Welford) SampleVar() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// StdDev returns the population standard deviation.
func (w *Welford) StdDev() float64 { return math.Sqrt(w.Var()) }

// Reset clears all state.
func (w *Welford) Reset() { *w = Welford{} }

// Summary aggregates a stream of observations: exact running moments via
// Welford, min/max, and arbitrary quantiles over the retained sample. It is
// sized for multi-run exploration statistics (hundreds to thousands of
// runs), so it keeps every observation; it is not meant for unbounded
// signals. The zero value is ready to use.
type Summary struct {
	w       Welford
	min     float64
	max     float64
	samples []float64
	sorted  bool
}

// Add incorporates one observation.
func (s *Summary) Add(x float64) {
	if s.w.N() == 0 || x < s.min {
		s.min = x
	}
	if s.w.N() == 0 || x > s.max {
		s.max = x
	}
	s.w.Add(x)
	s.samples = append(s.samples, x)
	s.sorted = false
}

// N returns the number of observations.
func (s *Summary) N() int64 { return s.w.N() }

// Mean returns the running mean (0 before any observation).
func (s *Summary) Mean() float64 { return s.w.Mean() }

// StdDev returns the population standard deviation.
func (s *Summary) StdDev() float64 { return s.w.StdDev() }

// Min returns the smallest observation (0 before any observation).
func (s *Summary) Min() float64 {
	if s.w.N() == 0 {
		return 0
	}
	return s.min
}

// Max returns the largest observation (0 before any observation).
func (s *Summary) Max() float64 {
	if s.w.N() == 0 {
		return 0
	}
	return s.max
}

// Quantile returns the q-quantile (q in [0,1]) of the observations using
// linear interpolation between order statistics; it returns 0 before any
// observation. Quantile(0.5) is the median.
func (s *Summary) Quantile(q float64) float64 {
	n := len(s.samples)
	if n == 0 {
		return 0
	}
	if !s.sorted {
		sort.Float64s(s.samples)
		s.sorted = true
	}
	if q <= 0 {
		return s.samples[0]
	}
	if q >= 1 {
		return s.samples[n-1]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s.samples[lo]
	}
	frac := pos - float64(lo)
	return s.samples[lo]*(1-frac) + s.samples[hi]*frac
}

// Median returns the 0.5-quantile.
func (s *Summary) Median() float64 { return s.Quantile(0.5) }

// Reset clears all state, retaining the sample buffer's capacity.
func (s *Summary) Reset() {
	s.w.Reset()
	s.min, s.max = 0, 0
	s.samples = s.samples[:0]
	s.sorted = false
}

// EWMA is an exponentially weighted moving average with smoothing factor
// alpha in (0,1]: larger alpha tracks faster, smaller alpha remembers more.
// The first observation initializes the average.
type EWMA struct {
	alpha float64
	val   float64
	init  bool
}

// NewEWMA returns an estimator with the given smoothing factor.
func NewEWMA(alpha float64) *EWMA {
	if alpha <= 0 || alpha > 1 {
		panic("stats: EWMA alpha out of (0,1]")
	}
	return &EWMA{alpha: alpha}
}

// Add incorporates one observation and returns the updated value.
func (e *EWMA) Add(x float64) float64 {
	if !e.init {
		e.val = x
		e.init = true
		return x
	}
	e.val += e.alpha * (x - e.val)
	return e.val
}

// Value returns the current average (0 before any observation).
func (e *EWMA) Value() float64 { return e.val }

// Initialized reports whether at least one observation has been added.
func (e *EWMA) Initialized() bool { return e.init }

// Set forces the current value, marking the estimator initialized. The
// annealing schedule uses this to seed the acceptance-ratio estimate.
func (e *EWMA) Set(x float64) { e.val, e.init = x, true }

// EWMoments tracks exponentially weighted mean and variance of a signal.
type EWMoments struct {
	alpha    float64
	mean     float64
	variance float64
	init     bool
}

// NewEWMoments returns a tracker with smoothing factor alpha.
func NewEWMoments(alpha float64) *EWMoments {
	if alpha <= 0 || alpha > 1 {
		panic("stats: EWMoments alpha out of (0,1]")
	}
	return &EWMoments{alpha: alpha}
}

// Add incorporates one observation (West's EW update).
func (m *EWMoments) Add(x float64) {
	if !m.init {
		m.mean = x
		m.variance = 0
		m.init = true
		return
	}
	d := x - m.mean
	incr := m.alpha * d
	m.mean += incr
	m.variance = (1 - m.alpha) * (m.variance + d*incr)
}

// Mean returns the exponentially weighted mean.
func (m *EWMoments) Mean() float64 { return m.mean }

// Var returns the exponentially weighted variance.
func (m *EWMoments) Var() float64 { return m.variance }

// StdDev returns the exponentially weighted standard deviation.
func (m *EWMoments) StdDev() float64 { return math.Sqrt(m.variance) }

// Initialized reports whether at least one observation has been added.
func (m *EWMoments) Initialized() bool { return m.init }
