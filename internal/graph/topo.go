package graph

// Topo returns a topological order of the graph (Kahn's algorithm) or
// ErrCycle when the graph contains a cycle. Among nodes that become ready
// simultaneously, lower-numbered nodes come first, so the order is
// deterministic for a given graph.
func Topo(g *DAG) ([]int, error) {
	n := g.N()
	indeg := make([]int, n)
	for v := 0; v < n; v++ {
		indeg[v] = g.InDegree(v)
	}
	// A simple ordered ready "heap": because we pop minimum node ids we use
	// an insertion-sorted slice; n is small (task graphs) so this is faster
	// in practice than container/heap and keeps the order deterministic.
	ready := make([]int, 0, n)
	push := func(v int) {
		lo, hi := 0, len(ready)
		for lo < hi {
			mid := (lo + hi) / 2
			if ready[mid] > v { // stored descending so pop is cheap
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		ready = append(ready, 0)
		copy(ready[lo+1:], ready[lo:])
		ready[lo] = v
	}
	for v := 0; v < n; v++ {
		if indeg[v] == 0 {
			push(v)
		}
	}
	order := make([]int, 0, n)
	for len(ready) > 0 {
		v := ready[len(ready)-1]
		ready = ready[:len(ready)-1]
		order = append(order, v)
		g.EachSucc(v, func(s int, _ int64) {
			indeg[s]--
			if indeg[s] == 0 {
				push(s)
			}
		})
	}
	if len(order) != n {
		return nil, ErrCycle
	}
	return order, nil
}

// IsAcyclic reports whether the graph has no directed cycle.
func IsAcyclic(g *DAG) bool {
	_, err := Topo(g)
	return err == nil
}
