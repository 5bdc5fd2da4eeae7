package graph

// Longest computes the longest-path start time of every node of a DAG whose
// nodes carry durations dur[v] and whose edges carry the weights stored in
// the graph. The start of a node is
//
//	start[v] = max over predecessors u of (start[u] + dur[u] + w(u,v))
//
// with start = 0 for source nodes, and the makespan is
//
//	max over v of (start[v] + dur[v]).
//
// This is the solution-evaluation primitive of the paper (Section 4.4): the
// cost of a candidate mapping is the longest path of the search graph, where
// node weights are execution/communication times and edge weights carry the
// reconfiguration delays of context-sequentialization edges.
//
// It returns ErrCycle if the graph is cyclic.
func Longest(g *DAG, dur []int64) (start []int64, makespan int64, err error) {
	if len(dur) != g.N() {
		panic("graph: duration slice length mismatch")
	}
	order, err := Topo(g)
	if err != nil {
		return nil, 0, err
	}
	start = make([]int64, g.N())
	for _, u := range order {
		fin := start[u] + dur[u]
		if fin > makespan {
			makespan = fin
		}
		g.EachSucc(u, func(v int, w int64) {
			if s := fin + w; s > start[v] {
				start[v] = s
			}
		})
	}
	return start, makespan, nil
}
