package anneal

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// recordingBatch is a BatchProblem that scores candidates the way an
// in-place scorer does — Candidate applies the move and leaves it applied,
// ConsumeCandidate keeps or reverts it — and records every violation of
// the call order BatchProblem documents.
type recordingBatch struct {
	x      float64
	deltas []float64
	kinds  []int
	n      int // candidates drawn in the current round
	next   int // lowest index the next Candidate call may use
	open   int // candidate applied or scored but not consumed, -1 = none
	calls  int
	errs   []string
}

func newRecordingBatch(x float64) *recordingBatch {
	return &recordingBatch{x: x, open: -1}
}

func (p *recordingBatch) fail(format string, args ...interface{}) {
	if len(p.errs) < 10 {
		p.errs = append(p.errs, fmt.Sprintf("call %d: ", p.calls)+fmt.Sprintf(format, args...))
	}
}

func (p *recordingBatch) Cost() float64 {
	p.calls++
	if p.open >= 0 {
		p.fail("Cost while candidate %d is unconsumed", p.open)
	}
	return p.cost()
}

func (p *recordingBatch) cost() float64 { return (p.x - 3) * (p.x - 3) }

func (p *recordingBatch) Propose(*rand.Rand) Move {
	panic("batched runs must not call Propose")
}

func (p *recordingBatch) SpeculateBatch(rng *rand.Rand, k int) int {
	p.calls++
	if p.open >= 0 {
		p.fail("SpeculateBatch while candidate %d is unconsumed", p.open)
	}
	p.deltas, p.kinds = p.deltas[:0], p.kinds[:0]
	for i := 0; i < k; i++ {
		kind := 0
		switch r := rng.Intn(10); {
		case r == 0:
			kind = -1 // the draw found no move
		case r == 1:
			kind = 1 // a move that evaluates infeasibly
		}
		p.kinds = append(p.kinds, kind)
		p.deltas = append(p.deltas, rng.NormFloat64())
	}
	p.n, p.next = k, 0
	return k
}

func (p *recordingBatch) Candidate(i int) (int, bool, float64) {
	p.calls++
	if p.open >= 0 {
		p.fail("Candidate(%d) while candidate %d is unconsumed", i, p.open)
	}
	if i < p.next || i >= p.n {
		p.fail("Candidate(%d) out of order (next %d, round of %d)", i, p.next, p.n)
	}
	p.open, p.next = i, i+1
	if p.kinds[i] != 0 {
		return p.kinds[i], false, 0
	}
	p.x += p.deltas[i]
	return 0, true, p.cost()
}

func (p *recordingBatch) ConsumeCandidate(i int, accepted bool) bool {
	p.calls++
	if i != p.open {
		p.fail("ConsumeCandidate(%d) but the open candidate is %d", i, p.open)
		return false
	}
	p.open = -1
	if p.kinds[i] != 0 {
		if accepted {
			p.fail("accepted infeasible candidate %d", i)
		}
		return !accepted
	}
	if !accepted {
		p.x -= p.deltas[i]
	}
	return true
}

// doneAfter is a constant-temperature schedule that freezes after a fixed
// number of observations.
type doneAfter struct{ seen, n int }

func (s *doneAfter) Temperature() float64  { return 5 }
func (s *doneAfter) Observe(float64, bool) { s.seen++ }
func (s *doneAfter) Done() bool            { return s.seen >= s.n }

// TestBatchCallOrder pins the call order an in-place batch scorer relies
// on: every Candidate(i) is consumed before the next Candidate, Cost or
// SpeculateBatch call, and no candidate is left unconsumed, on the normal
// path and on both exits — schedule freeze and iteration budget — with
// rounds of several widths ending mid-round.
func TestBatchCallOrder(t *testing.T) {
	cases := []struct {
		name   string
		opt    func() Options
		checks func(t *testing.T, st Stats)
	}{
		{"normal", func() Options {
			o := Options{Schedule: NewLam(0.05, 200)}
			o.MaxIters = 3000
			return o
		}, func(t *testing.T, st Stats) {
			if st.Accepted == 0 || st.Rejected == 0 || st.Infeasible == 0 || st.Discarded == 0 {
				t.Fatalf("run did not exercise every verdict: %+v", st)
			}
		}},
		{"schedule-done", func() Options {
			return Options{Schedule: &doneAfter{n: 1001}}
		}, func(t *testing.T, st Stats) {
			if st.Iters != 1001 {
				t.Fatalf("frozen schedule stopped after %d iterations, want 1001", st.Iters)
			}
		}},
		{"max-iters", func() Options {
			o := Options{Schedule: &doneAfter{n: 1 << 30}}
			o.MaxIters = 1003
			return o
		}, func(t *testing.T, st Stats) {
			if st.Iters != 1003 {
				t.Fatalf("budgeted run consumed %d iterations, want 1003", st.Iters)
			}
		}},
	}
	for _, c := range cases {
		for _, width := range []int{2, 5, 8, 64} {
			p := newRecordingBatch(40)
			opt := c.opt()
			opt.Seed = int64(width)
			opt.Batch = width
			st := Run(p, opt)
			name := fmt.Sprintf("%s/batch%d", c.name, width)
			if p.open >= 0 {
				t.Fatalf("%s: run ended with candidate %d unconsumed", name, p.open)
			}
			if len(p.errs) > 0 {
				t.Fatalf("%s: call order violated:\n%v", name, p.errs)
			}
			// Kept and reverted candidates must leave the problem where the
			// runner believes it is (up to the fake's float drift).
			if math.Abs(st.FinalCost-p.cost()) > 1e-9*(1+st.FinalCost) {
				t.Fatalf("%s: final cost %v, problem is at %v", name, st.FinalCost, p.cost())
			}
			c.checks(t, st)
		}
	}
}
