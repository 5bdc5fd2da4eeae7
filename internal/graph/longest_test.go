package graph

import (
	"math/rand"
	"testing"
)

func TestLongestChain(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1, 5) //nolint:errcheck
	g.AddEdge(1, 2, 5) //nolint:errcheck
	dur := []int64{10, 20, 30}
	start, mk, err := Longest(g, dur)
	if err != nil {
		t.Fatal(err)
	}
	if start[0] != 0 || start[1] != 15 || start[2] != 40 {
		t.Fatalf("starts = %v", start)
	}
	if mk != 70 {
		t.Fatalf("makespan = %d, want 70", mk)
	}
}

func TestLongestDiamond(t *testing.T) {
	// 0 -> {1,2} -> 3; branch through 2 is longer.
	g := New(4)
	g.AddEdge(0, 1, 0) //nolint:errcheck
	g.AddEdge(0, 2, 0) //nolint:errcheck
	g.AddEdge(1, 3, 0) //nolint:errcheck
	g.AddEdge(2, 3, 0) //nolint:errcheck
	dur := []int64{1, 2, 10, 1}
	start, mk, err := Longest(g, dur)
	if err != nil {
		t.Fatal(err)
	}
	if start[3] != 11 {
		t.Fatalf("start[3] = %d, want 11", start[3])
	}
	if mk != 12 {
		t.Fatalf("makespan = %d, want 12", mk)
	}
}

func TestLongestDisconnected(t *testing.T) {
	g := New(3)
	dur := []int64{7, 3, 9}
	start, mk, err := Longest(g, dur)
	if err != nil {
		t.Fatal(err)
	}
	for v, s := range start {
		if s != 0 {
			t.Fatalf("start[%d] = %d, want 0", v, s)
		}
	}
	if mk != 9 {
		t.Fatalf("makespan = %d, want 9", mk)
	}
}

func TestLongestCycleError(t *testing.T) {
	g := New(2)
	g.AddEdge(0, 1, 0) //nolint:errcheck
	g.AddEdge(1, 0, 0) //nolint:errcheck
	if _, _, err := Longest(g, []int64{1, 1}); err != ErrCycle {
		t.Fatalf("err = %v, want ErrCycle", err)
	}
}

// brute-force longest path over all simple paths, for small random graphs.
func bruteMakespan(g *DAG, dur []int64) int64 {
	var best int64
	var walk func(v int, acc int64)
	walk = func(v int, acc int64) {
		acc += dur[v]
		if acc > best {
			best = acc
		}
		g.EachSucc(v, func(s int, w int64) {
			walk(s, acc+w)
		})
	}
	for v := 0; v < g.N(); v++ {
		if g.InDegree(v) == 0 {
			walk(v, 0)
		}
	}
	return best
}

func TestLongestMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	for trial := 0; trial < 60; trial++ {
		n := 1 + r.Intn(10)
		g := randomDAG(r, n, 0.4)
		dur := make([]int64, n)
		for i := range dur {
			dur[i] = int64(r.Intn(50))
		}
		_, mk, err := Longest(g, dur)
		if err != nil {
			t.Fatal(err)
		}
		if want := bruteMakespan(g, dur); mk != want {
			t.Fatalf("makespan = %d, brute force = %d", mk, want)
		}
	}
}
