package core

import (
	"math/rand"

	"repro/internal/anneal"
)

// Speculative batch evaluation (anneal.BatchProblem): the annealer asks for
// a round of k candidate moves drawn against the current solution, then
// consumes them in draw order through the Metropolis rule and ends the
// round at the first acceptance. Scoring is lazy and in place: the draw
// scores nothing, Candidate(i) applies candidate i through the ordinary
// move.Apply path (journal, incremental update or full rebuild, Paranoid
// checks) and leaves it applied, and ConsumeCandidate reverts it on
// rejection or keeps it on acceptance. Every rejected candidate is
// reverted before the next one is applied, so each score is measured
// against the round's base state — the same apply → evaluate number an
// eager scorer computes — and the trajectory stays a pure function of
// (seed, batch width). Candidates past an acceptance are discarded
// without ever being scored.

// specCand is one drawn candidate: the move parameters captured at
// proposal time.
type specCand struct {
	kind          int // -1 when the draw produced no move
	a, b, c, d, p int
}

// SpeculateBatch implements anneal.BatchProblem: draw k candidates from rng
// against the current solution. The draw order is part of the
// deterministic trajectory; nothing is scored and the solution is left
// untouched.
func (e *Explorer) SpeculateBatch(rng *rand.Rand, k int) int {
	if cap(e.spec) < k {
		e.spec = make([]specCand, k)
	}
	e.spec = e.spec[:k]
	for i := range e.spec {
		c := &e.spec[i]
		if e.Propose(rng) != nil {
			*c = specCand{kind: e.mv.kind, a: e.mv.a, b: e.mv.b, c: e.mv.c, d: e.mv.d, p: e.mv.p}
		} else {
			*c = specCand{kind: -1}
		}
	}
	return k
}

// Candidate implements anneal.BatchProblem: apply candidate i to the
// current solution and report its cost. A feasible candidate stays
// applied until ConsumeCandidate(i, …). Its front offer is held back:
// only an accepted candidate is archived, exactly once — which is why a
// candidate may be cut at its bound whatever the front holds.
func (e *Explorer) Candidate(i int, g *anneal.Gate) (kind int, ok bool, cost float64) {
	c := &e.spec[i]
	if c.kind < 0 {
		return -1, false, 0
	}
	e.mv.kind, e.mv.a, e.mv.b, e.mv.c, e.mv.d, e.mv.p = c.kind, c.a, c.b, c.c, c.d, c.p
	e.speculating = true
	e.specApplied = e.mv.Apply(g)
	e.speculating = false
	if !e.specApplied {
		return c.kind, false, 0
	}
	return c.kind, true, e.curCost
}

// ConsumeCandidate implements anneal.BatchProblem. A rejected candidate is
// reverted with the serial loop's O(journal) Revert, which defers the
// evaluator resync to the next update. An accepted candidate is already
// the current solution; it only gets the front offer Candidate held back.
func (e *Explorer) ConsumeCandidate(i int, accepted bool) bool {
	applied := e.specApplied
	e.specApplied = false
	if !accepted {
		if applied {
			e.mv.Revert()
		}
		return true
	}
	if !applied {
		return false
	}
	e.offerFront()
	return true
}
