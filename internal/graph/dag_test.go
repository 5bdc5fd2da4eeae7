package graph

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

func TestNewEmpty(t *testing.T) {
	g := New(5)
	if g.N() != 5 || g.M() != 0 {
		t.Fatalf("got N=%d M=%d, want 5,0", g.N(), g.M())
	}
	for v := 0; v < 5; v++ {
		if g.InDegree(v) != 0 || g.OutDegree(v) != 0 {
			t.Fatalf("node %d not isolated", v)
		}
	}
}

func TestAddRemoveEdge(t *testing.T) {
	g := New(4)
	created, err := g.AddEdge(0, 1, 7)
	if err != nil || !created {
		t.Fatalf("AddEdge(0,1) = %v,%v", created, err)
	}
	if g.M() != 1 || !g.HasEdge(0, 1) {
		t.Fatal("edge 0->1 missing after AddEdge")
	}
	if w, ok := g.Weight(0, 1); !ok || w != 7 {
		t.Fatalf("Weight(0,1) = %d,%v, want 7,true", w, ok)
	}
	// Overwrite weight: not a new edge.
	created, err = g.AddEdge(0, 1, 9)
	if err != nil || created {
		t.Fatalf("overwrite AddEdge = %v,%v, want false,nil", created, err)
	}
	if w, _ := g.Weight(0, 1); w != 9 {
		t.Fatalf("weight after overwrite = %d, want 9", w)
	}
	if g.M() != 1 {
		t.Fatalf("M after overwrite = %d, want 1", g.M())
	}
	if !g.RemoveEdge(0, 1) {
		t.Fatal("RemoveEdge(0,1) = false, want true")
	}
	if g.RemoveEdge(0, 1) {
		t.Fatal("second RemoveEdge(0,1) = true, want false")
	}
	if g.M() != 0 || g.HasEdge(0, 1) {
		t.Fatal("edge survived removal")
	}
}

func TestSelfLoopRejected(t *testing.T) {
	g := New(3)
	if _, err := g.AddEdge(2, 2, 0); err != ErrCycle {
		t.Fatalf("self loop err = %v, want ErrCycle", err)
	}
}

func TestOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range node")
		}
	}()
	g := New(2)
	g.AddEdge(0, 5, 0) //nolint:errcheck // panics before returning
}

func TestSetWeight(t *testing.T) {
	g := New(3)
	if g.SetWeight(0, 1, 4) {
		t.Fatal("SetWeight on missing edge = true")
	}
	g.AddEdge(0, 1, 1) //nolint:errcheck
	if !g.SetWeight(0, 1, 4) {
		t.Fatal("SetWeight on existing edge = false")
	}
	if w, _ := g.Weight(0, 1); w != 4 {
		t.Fatalf("weight = %d, want 4", w)
	}
	// pred view must agree
	var pw int64
	g.EachPred(1, func(u int, w int64) {
		if u == 0 {
			pw = w
		}
	})
	if pw != 4 {
		t.Fatalf("pred weight = %d, want 4", pw)
	}
}

func TestDegreesAndNeighbors(t *testing.T) {
	g := New(5)
	g.AddEdge(0, 1, 0) //nolint:errcheck
	g.AddEdge(0, 2, 0) //nolint:errcheck
	g.AddEdge(3, 2, 0) //nolint:errcheck
	if g.OutDegree(0) != 2 || g.InDegree(2) != 2 || g.InDegree(1) != 1 {
		t.Fatal("degree mismatch")
	}
	succs := g.Succs(0)
	if len(succs) != 2 {
		t.Fatalf("Succs(0) = %v", succs)
	}
	preds := g.Preds(2)
	if len(preds) != 2 {
		t.Fatalf("Preds(2) = %v", preds)
	}
}

func TestEdgesAndClone(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1, 1) //nolint:errcheck
	g.AddEdge(1, 2, 2) //nolint:errcheck
	g.AddEdge(2, 3, 3) //nolint:errcheck
	c := g.Clone()
	if c.M() != 3 {
		t.Fatalf("clone M = %d", c.M())
	}
	c.RemoveEdge(0, 1)
	if !g.HasEdge(0, 1) {
		t.Fatal("clone mutation leaked into original")
	}
	if len(g.Edges()) != 3 {
		t.Fatalf("Edges() = %v", g.Edges())
	}
}

func TestReachability(t *testing.T) {
	g := New(6)
	// 0->1->2->3, 4 isolated, 5->0
	g.AddEdge(0, 1, 0) //nolint:errcheck
	g.AddEdge(1, 2, 0) //nolint:errcheck
	g.AddEdge(2, 3, 0) //nolint:errcheck
	g.AddEdge(5, 0, 0) //nolint:errcheck
	if !g.Reaches(5, 3) {
		t.Fatal("5 should reach 3")
	}
	if g.Reaches(3, 0) {
		t.Fatal("3 should not reach 0")
	}
	if g.Reaches(4, 0) || g.Reaches(0, 4) {
		t.Fatal("4 is isolated")
	}
	if g.Reaches(0, 0) {
		t.Fatal("0 is not on a cycle")
	}
}

func TestReachesSelfOnCycle(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1, 0) //nolint:errcheck
	g.AddEdge(1, 0, 0) //nolint:errcheck
	if !g.Reaches(0, 0) {
		t.Fatal("0 lies on a cycle and should reach itself")
	}
}

// randomDAG builds a random DAG: edges only go from lower to higher node
// index, so acyclicity holds by construction.
func randomDAG(r *rand.Rand, n int, p float64) *DAG {
	g := New(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if r.Float64() < p {
				g.AddEdge(u, v, int64(r.Intn(100))) //nolint:errcheck
			}
		}
	}
	return g
}

func TestRandomDAGIsAcyclic(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 50; i++ {
		g := randomDAG(r, 2+r.Intn(30), r.Float64()*0.5)
		if !IsAcyclic(g) {
			t.Fatal("randomDAG produced a cycle")
		}
	}
}

// Flow edges live beside the plain edges: AddEdge, RemoveEdge, HasEdge,
// Weight and SetWeight never match one, parallel flow edges coexist, and
// only SetFlowWeight re-weights a flow edge.
func TestFlowEdgesBesidePlainEdges(t *testing.T) {
	g := New(3)
	for want := 0; want < 2; want++ {
		id, err := g.AddFlow(0, 1, int64(10+want))
		if err != nil || id != want {
			t.Fatalf("AddFlow = %d, %v; want %d", id, err, want)
		}
	}
	if _, err := g.AddFlow(2, 2, 0); err != ErrCycle {
		t.Fatalf("self-loop flow: err = %v, want ErrCycle", err)
	}
	if g.HasEdge(0, 1) || g.SetWeight(0, 1, 3) || g.RemoveEdge(0, 1) {
		t.Fatal("a plain-edge operation matched a flow edge")
	}
	if _, ok := g.Weight(0, 1); ok {
		t.Fatal("Weight matched a flow edge")
	}
	created, err := g.AddEdge(0, 1, 5)
	if err != nil || !created {
		t.Fatalf("AddEdge beside two flows = %v, %v; want a new edge", created, err)
	}
	if w, ok := g.Weight(0, 1); !ok || w != 5 {
		t.Fatalf("plain weight = %d, %v; want 5", w, ok)
	}
	if g.M() != 3 || g.OutDegree(0) != 3 || g.InDegree(1) != 3 || len(g.flows) != 2 {
		t.Fatalf("M=%d out=%d in=%d flows=%d, want 3, 3, 3, 2", g.M(), g.OutDegree(0), g.InDegree(1), len(g.flows))
	}
	if g.SetFlowWeight(1, 11) || !g.SetFlowWeight(1, 7) {
		t.Fatal("SetFlowWeight must report exactly the weight changes")
	}
	if w := g.flows[0].w; w != 10 {
		t.Fatalf("flow 0 weight = %d, want 10 after re-weighting flow 1", w)
	}
	var preds []int64
	g.EachPred(1, func(_ int, w int64) { preds = append(preds, w) })
	sort.Slice(preds, func(i, j int) bool { return preds[i] < preds[j] })
	if fmt.Sprint(preds) != "[5 7 10]" {
		t.Fatalf("pred weights of node 1 = %v, want [5 7 10]", preds)
	}
	c := g.Clone()
	if !g.RemoveEdge(0, 1) || g.RemoveEdge(0, 1) {
		t.Fatal("RemoveEdge must remove the plain edge once")
	}
	if g.M() != 2 || len(g.flows) != 2 || g.HasEdge(0, 1) {
		t.Fatalf("after removing the plain edge: M=%d flows=%d", g.M(), len(g.flows))
	}
	if c.M() != 3 || !c.HasEdge(0, 1) || len(c.flows) != 2 {
		t.Fatal("clone lost an edge")
	}
	c.SetFlowWeight(0, 1)
	if w := g.flows[0].w; w != 10 {
		t.Fatal("clone flow mutation leaked into original")
	}
}

// A cycle through a flow edge is refused like any other.
func TestFlowEdgeCycleRefused(t *testing.T) {
	g := New(3)
	if _, err := g.AddFlow(0, 1, 4); err != nil {
		t.Fatal(err)
	}
	e, err := NewEvaluator(g, []int64{1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.AddEdge(1, 2, 0); err != nil {
		t.Fatal(err)
	}
	for _, u := range []int{1, 2} {
		if err := e.AddEdge(u, 0, 0); err != ErrCycle {
			t.Fatalf("AddEdge(%d,0) through flow 0→1: err = %v, want ErrCycle", u, err)
		}
	}
	if mk := e.Flush(); mk != 7 { // 1 + 4 + 1 + 1
		t.Fatalf("makespan = %d, want 7", mk)
	}
	g2 := New(2)
	g2.AddFlow(0, 1, 0) //nolint:errcheck
	g2.AddFlow(1, 0, 0) //nolint:errcheck
	if _, err := NewEvaluator(g2, []int64{1, 1}); err != ErrCycle {
		t.Fatalf("a flow cycle built an evaluator: err = %v", err)
	}
}
