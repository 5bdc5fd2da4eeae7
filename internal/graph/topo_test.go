package graph

import (
	"math/rand"
	"testing"
)

func verifyTopo(t *testing.T, g *DAG, order []int) {
	t.Helper()
	if len(order) != g.N() {
		t.Fatalf("order length %d, want %d", len(order), g.N())
	}
	pos := make([]int, g.N())
	seen := make([]bool, g.N())
	for i, v := range order {
		if v < 0 || v >= g.N() || seen[v] {
			t.Fatalf("order is not a permutation: %v", order)
		}
		seen[v] = true
		pos[v] = i
	}
	for _, e := range g.Edges() {
		if pos[e.U] >= pos[e.V] {
			t.Fatalf("edge %d->%d violates order %v", e.U, e.V, order)
		}
	}
}

func TestTopoChain(t *testing.T) {
	g := New(5)
	for i := 0; i < 4; i++ {
		g.AddEdge(i, i+1, 0) //nolint:errcheck
	}
	order, err := Topo(g)
	if err != nil {
		t.Fatal(err)
	}
	verifyTopo(t, g, order)
	for i, v := range order {
		if v != i {
			t.Fatalf("chain order = %v", order)
		}
	}
}

func TestTopoDetectsCycle(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1, 0) //nolint:errcheck
	g.AddEdge(1, 2, 0) //nolint:errcheck
	g.AddEdge(2, 0, 0) //nolint:errcheck
	if _, err := Topo(g); err != ErrCycle {
		t.Fatalf("err = %v, want ErrCycle", err)
	}
	if IsAcyclic(g) {
		t.Fatal("IsAcyclic on a cycle = true")
	}
}

func TestTopoDeterministic(t *testing.T) {
	g := New(6)
	g.AddEdge(5, 2, 0) //nolint:errcheck
	g.AddEdge(5, 0, 0) //nolint:errcheck
	g.AddEdge(4, 0, 0) //nolint:errcheck
	g.AddEdge(4, 1, 0) //nolint:errcheck
	g.AddEdge(2, 3, 0) //nolint:errcheck
	g.AddEdge(3, 1, 0) //nolint:errcheck
	a, _ := Topo(g)
	for i := 0; i < 10; i++ {
		b, _ := Topo(g)
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("nondeterministic order: %v vs %v", a, b)
			}
		}
	}
	verifyTopo(t, g, a)
}

func TestTopoRandom(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 100; i++ {
		g := randomDAG(r, 1+r.Intn(40), r.Float64()*0.4)
		order, err := Topo(g)
		if err != nil {
			t.Fatal(err)
		}
		verifyTopo(t, g, order)
	}
}
