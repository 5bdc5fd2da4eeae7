package graph

import (
	"math/rand"
	"sort"
	"testing"
)

// explicitContended is the reference for ContendedMakespan: it gives every
// flow edge its own node lasting the flow's weight, finds the chain-free
// starts with Longest, threads zero-weight chain edges through the
// positive flows in (start, flow id) order and takes the longest path
// again.
func explicitContended(t *testing.T, g *DAG, dur []int64) int64 {
	t.Helper()
	n, nf := g.N(), len(g.flows)
	x := New(n + nf)
	xdur := append(append([]int64(nil), dur...), make([]int64, nf)...)
	for u := 0; u < n; u++ {
		for _, h := range g.succ[u] {
			if h.flow == 0 {
				x.AddEdge(u, int(h.to), h.w) //nolint:errcheck
			}
		}
	}
	for k, f := range g.flows {
		x.AddEdge(int(f.u), n+k, 0) //nolint:errcheck
		x.AddEdge(n+k, int(f.v), 0) //nolint:errcheck
		xdur[n+k] = f.w
	}
	start, _, err := Longest(x, xdur)
	if err != nil {
		t.Fatal(err)
	}
	var chain []int
	for k := 0; k < nf; k++ {
		if xdur[n+k] > 0 {
			chain = append(chain, n+k)
		}
	}
	sort.Slice(chain, func(i, j int) bool {
		a, b := chain[i], chain[j]
		return start[a] < start[b] || (start[a] == start[b] && a < b)
	})
	for i := 1; i < len(chain); i++ {
		x.AddEdge(chain[i-1], chain[i], 0) //nolint:errcheck
	}
	_, mk, err := Longest(x, xdur)
	if err != nil {
		t.Fatalf("the chain closed a cycle: %v", err)
	}
	return mk
}

// Property: on random graphs with plain and flow edges — parallel flows,
// flows beside plain edges, zero durations and weights for ties — and
// random edit streams, ContendedMakespan equals the explicit chained
// graph's longest path, its sweep puts every edge forward, and Flush
// still returns the chain-free makespan.
func TestContendedMakespanMatchesExplicitChain(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	small := func(max int) int64 {
		if r.Intn(3) == 0 {
			return 0
		}
		return int64(1 + r.Intn(max))
	}
	sweeps := 0
	for trial := 0; trial < 40; trial++ {
		n := 2 + r.Intn(18)
		g := New(n)
		nf := r.Intn(3 * n)
		for k := 0; k < nf; k++ {
			u := r.Intn(n - 1)
			v := u + 1 + r.Intn(n-1-u)
			if r.Intn(4) == 0 {
				g.AddEdge(u, v, small(5)) //nolint:errcheck
			}
			if _, err := g.AddFlow(u, v, small(30)); err != nil {
				t.Fatal(err)
			}
		}
		dur := make([]int64, n)
		for i := range dur {
			dur[i] = small(40)
		}
		e, err := NewEvaluator(g, dur)
		if err != nil {
			t.Fatal(err)
		}
		for step := 0; step < 60; step++ {
			switch r.Intn(4) {
			case 0:
				u, v := r.Intn(n), r.Intn(n)
				if u != v {
					if err := e.AddEdge(u, v, small(5)); err != nil && err != ErrCycle {
						t.Fatal(err)
					}
				}
			case 1:
				e.RemoveEdge(r.Intn(n), r.Intn(n))
			case 2:
				e.SetDur(r.Intn(n), small(40))
			case 3:
				if nf > 0 {
					e.SetFlowWeight(r.Intn(nf), small(30))
				}
			}
			if step%3 != 0 {
				continue
			}
			want := explicitContended(t, g, e.dur)
			chainFree := e.Flush()
			if got := e.ContendedMakespan(); got != want {
				t.Fatalf("trial %d step %d: ContendedMakespan = %d, explicit chain = %d", trial, step, got, want)
			}
			if err := e.VerifySweep(); err != nil {
				t.Fatalf("trial %d step %d: %v", trial, step, err)
			}
			if e.con.live >= 2 {
				sweeps++
			}
			if mk := e.Flush(); mk != chainFree {
				t.Fatalf("trial %d step %d: the sweep moved the chain-free makespan %d to %d", trial, step, chainFree, mk)
			}
		}
	}
	if sweeps < 100 {
		t.Fatalf("only %d calls ran a sweep", sweeps)
	}
}
