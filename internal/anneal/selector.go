package anneal

import (
	"math/rand"

	"repro/internal/stats"
)

// AdaptiveSelector draws move kinds for a problem's Propose
// implementation. The paper refines Lam's move-selection control: the
// adaptive schedule's quasi-equilibrium condition is best served by move
// classes whose acceptance sits near the theoretical optimum, so the
// selector biases generation toward kinds whose recent acceptance ratio is
// informative (neither ~0, wasted work, nor ~1, no exploration pressure).
//
// Each kind's weight is a(1−a) — maximal near the Lam target acceptance —
// where a is an exponentially weighted acceptance estimate per kind,
// floored so that no kind is ever starved (every region of the move space
// stays reachable, preserving the irreducibility the convergence theory
// needs).
type AdaptiveSelector struct {
	base    []float64
	accepts []*stats.EWMA
	floor   float64
}

// NewAdaptiveSelector builds an adaptive selector over len(base) kinds;
// base provides the prior weights (kinds with base weight zero are never
// drawn, matching the paper's "probability of generating a 0 is set to 0"
// for the fixed-architecture experiments).
func NewAdaptiveSelector(base []float64) *AdaptiveSelector {
	s := &AdaptiveSelector{
		base:    append([]float64(nil), base...),
		accepts: make([]*stats.EWMA, len(base)),
		floor:   0.05,
	}
	for i := range s.accepts {
		s.accepts[i] = stats.NewEWMA(1.0 / 128)
		s.accepts[i].Set(0.5) // optimistic start: explore every kind
	}
	return s
}

// weight computes the current generation weight of kind k.
func (s *AdaptiveSelector) weight(k int) float64 {
	if s.base[k] <= 0 {
		return 0
	}
	a := s.accepts[k].Value()
	return s.base[k] * (s.floor + 4*a*(1-a))
}

// Pick draws a kind proportionally to the adaptive weights.
func (s *AdaptiveSelector) Pick(rng *rand.Rand) int {
	var total float64
	for k := range s.base {
		total += s.weight(k)
	}
	if total <= 0 {
		return 0
	}
	x := rng.Float64() * total
	for k := range s.base {
		x -= s.weight(k)
		if x < 0 {
			return k
		}
	}
	return len(s.base) - 1
}

// Observe updates the acceptance estimate of kind k.
func (s *AdaptiveSelector) Observe(k int, accepted bool) {
	if k < 0 || k >= len(s.accepts) {
		return
	}
	if accepted {
		s.accepts[k].Add(1)
	} else {
		s.accepts[k].Add(0)
	}
}
