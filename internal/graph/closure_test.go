package graph

import "testing"

// closureMatchesDFS checks every pair against ground-truth DFS reachability.
func closureMatchesDFS(t *testing.T, g *DAG, c *Closure) {
	t.Helper()
	for u := 0; u < g.N(); u++ {
		truth := g.ReachableFrom(u)
		for v := 0; v < g.N(); v++ {
			if u == v {
				continue
			}
			if c.Reaches(u, v) != truth.Get(v) {
				t.Fatalf("closure disagrees with DFS for %d->%d", u, v)
			}
		}
	}
}

func TestClosureSmall(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1, 0) //nolint:errcheck
	g.AddEdge(1, 2, 0) //nolint:errcheck
	c, err := NewClosure(g)
	if err != nil {
		t.Fatal(err)
	}
	if !c.Reaches(0, 2) || c.Reaches(2, 0) || c.Reaches(0, 3) {
		t.Fatal("closure wrong on chain")
	}
	closureMatchesDFS(t, g, c)
}

func TestClosureRejectsCycle(t *testing.T) {
	g := New(2)
	g.AddEdge(0, 1, 0) //nolint:errcheck
	g.AddEdge(1, 0, 0) //nolint:errcheck
	if _, err := NewClosure(g); err != ErrCycle {
		t.Fatalf("err = %v, want ErrCycle", err)
	}
}
