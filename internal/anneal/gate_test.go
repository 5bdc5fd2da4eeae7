package anneal

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// boundedWalk is a 1-D problem whose moves, when bounded is set, ask the
// gate about random lower bounds on their new cost before "finishing" the
// evaluation — the way an evaluator with a cheap early bound would. The
// slack comes from a private stream, so it never touches the runner's.
type boundedWalk struct {
	x       float64
	bounded bool
	slack   *rand.Rand

	// The move in flight.
	delta   float64
	kind    int
	applied bool
	cut     bool // the applied move was rejected by its gate

	cuts, asks int
	errs       []string
}

func newBoundedWalk(bounded bool) *boundedWalk {
	return &boundedWalk{x: 40, bounded: bounded, slack: rand.New(rand.NewSource(99))}
}

func (p *boundedWalk) fail(format string, args ...interface{}) {
	if len(p.errs) < 10 {
		p.errs = append(p.errs, fmt.Sprintf(format, args...))
	}
}

func (p *boundedWalk) cost() float64 { return (p.x-3)*(p.x-3) + math.Sin(p.x) }

func (p *boundedWalk) Cost() float64 {
	if p.cut {
		p.fail("Cost read after the gate rejected the move")
	}
	return p.cost()
}

// Propose draws a step, an infeasible move, or no move.
func (p *boundedWalk) Propose(rng *rand.Rand) Move {
	if p.cut {
		p.fail("a rejected move was never reverted")
	}
	p.applied = false
	p.kind = 0
	switch r := rng.Intn(10); {
	case r == 0:
		p.kind = -1
	case r == 1:
		p.kind = 1
	}
	p.delta = 2 * rng.NormFloat64()
	if p.kind < 0 {
		return nil
	}
	return walkMove{p}
}

// apply performs the move and, when bounded, asks g about one or two
// lower bounds: the exact cost itself, one a hair below it (inside the
// rounding margin), or one a random distance below it.
func (p *boundedWalk) apply(g *Gate) bool {
	if p.kind != 0 {
		return false
	}
	p.x += p.delta
	p.applied = true
	if !p.bounded {
		return true
	}
	c := p.cost()
	for n := 1 + p.slack.Intn(2); n > 0; n-- {
		var s float64
		switch p.slack.Intn(4) {
		case 0:
		case 1:
			s = 1e-14 * math.Abs(c)
		default:
			s = p.slack.ExpFloat64() * 3
		}
		p.asks++
		if g.Rejects(c - s) {
			p.cut = true
			p.cuts++
			return true
		}
	}
	return true
}

func (p *boundedWalk) revert() {
	if !p.applied {
		p.fail("revert of a move that was not applied")
	}
	p.x -= p.delta
	p.applied, p.cut = false, false
}

type walkMove struct{ p *boundedWalk }

func (m walkMove) Apply(g *Gate) bool { return m.p.apply(g) }
func (m walkMove) Revert()            { m.p.revert() }
func (m walkMove) Kind() int          { return m.p.kind }

// TestGateContract: a run whose moves ask the gate about lower bounds is
// bit-identical to one whose moves never do — same statistics, same trace,
// and the runner's stream at the same position afterwards — through
// warmup (T = +Inf), cooling and a greedy quench (T = 0). A rejected
// move's cost is never read.
func TestGateContract(t *testing.T) {
	schedules := map[string]func() Schedule{
		"lam":    func() Schedule { return NewLam(0.05, 300) },
		"greedy": func() Schedule { return Greedy{} },
	}
	type outcome struct {
		st    Stats
		trace []Observation
		next  float64
	}
	run := func(sched Schedule, bounded bool) (outcome, *boundedWalk) {
		p := newBoundedWalk(bounded)
		var out outcome
		opt := Options{Schedule: sched, MaxIters: 4000, Seed: 5}
		opt.Trace = func(o Observation) { out.trace = append(out.trace, o) }
		r := NewRunner(p, opt)
		for r.Step(97) {
		}
		out.st, out.next = r.Stats(), r.rng.Float64()
		return out, p
	}
	for name, mk := range schedules {
		exact, _ := run(mk(), false)
		cut, p := run(mk(), true)
		if len(p.errs) > 0 {
			t.Fatalf("%s: contract violated:\n%v", name, p.errs)
		}
		if p.cuts == 0 || p.cuts == p.asks {
			t.Fatalf("%s: %d cuts in %d bound checks — both outcomes must occur", name, p.cuts, p.asks)
		}
		if cut.st != exact.st {
			t.Fatalf("%s: stats differ:\n  bounded %+v\n  exact   %+v", name, cut.st, exact.st)
		}
		if len(cut.trace) != len(exact.trace) {
			t.Fatalf("%s: trace lengths differ: %d vs %d", name, len(cut.trace), len(exact.trace))
		}
		for i := range cut.trace {
			if cut.trace[i] != exact.trace[i] {
				t.Fatalf("%s: traces diverge at %d:\n  bounded %+v\n  exact   %+v", name, i, cut.trace[i], exact.trace[i])
			}
		}
		if cut.next != exact.next {
			t.Fatalf("%s: runner stream ends at a different position", name)
		}
	}
}

// TestGateRejectsIsExact probes Rejects against Accepts directly: whenever
// a bound is cut, the same draw rejects every cost at or above it, and a
// nil gate or a bound at or below the current cost never cuts or draws.
func TestGateRejectsIsExact(t *testing.T) {
	var nilGate *Gate
	if nilGate.Rejects(1e300) {
		t.Fatal("a nil gate rejected")
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 20000; i++ {
		temp := []float64{0, math.Inf(1), rng.ExpFloat64()}[i%3]
		g := Gate{rng: rng, cur: rng.NormFloat64(), temp: temp}
		if g.Rejects(g.cur) || g.Rejects(g.cur-rng.ExpFloat64()) || g.drawn {
			t.Fatal("a non-uphill bound cut or drew")
		}
		lb := g.cur + rng.ExpFloat64()
		if !g.Rejects(lb) {
			continue
		}
		for _, c := range []float64{lb, lb * (1 + 1e-15), lb + rng.ExpFloat64()} {
			if g.Accepts(c) {
				t.Fatalf("bound %v cut at T=%v, but cost %v is accepted by the same draw", lb, temp, c)
			}
		}
	}
}
