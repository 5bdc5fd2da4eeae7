package graph

import (
	"errors"
	"fmt"
)

// ErrCycle is returned by operations that would create or that detect a
// cycle in a graph that must remain acyclic.
var ErrCycle = errors.New("graph: cycle detected")

// halfEdge is one directed arc endpoint with its weight. Adjacency is stored
// as flat slices of these rather than maps: the search graphs are sparse
// (degrees are single digits), so a linear scan beats hashing, iteration is
// a contiguous sweep, and edge churn performs no steady-state allocation
// once the slices have grown to their working size.
//
// A flow edge carries 1 + its flow id in flow; a plain edge carries 0.
type halfEdge struct {
	to   int32
	flow int32
	w    int64
}

// flowRec is one flow edge: its endpoints and its current weight.
type flowRec struct {
	u, v int32
	w    int64
}

// DAG is a directed graph over nodes 0..N-1 with int64 edge weights.
// Despite the name, the structure itself does not forbid cycles; acyclicity
// is enforced by the callers (via Closure or DynTopo) because the explorer
// needs to *test* whether an edge insertion would create a cycle before
// committing to it.
//
// Besides the plain edges, at most one per ordered pair, a graph can hold
// flow edges (AddFlow): static edges numbered by a flow id, any number of
// them per pair and beside a plain edge, which only SetFlowWeight changes.
type DAG struct {
	succ  [][]halfEdge
	pred  [][]halfEdge
	flows []flowRec
	m     int // number of edges, flow edges included
}

// New returns an edgeless graph with n nodes.
func New(n int) *DAG {
	if n < 0 {
		panic("graph: negative node count")
	}
	return &DAG{
		succ: make([][]halfEdge, n),
		pred: make([][]halfEdge, n),
	}
}

// N returns the number of nodes.
func (g *DAG) N() int { return len(g.succ) }

// M returns the number of edges.
func (g *DAG) M() int { return g.m }

// check panics when u is out of range; mutation through an invalid node id
// is a programming error in the caller, never a data error.
func (g *DAG) check(u int) {
	if u < 0 || u >= len(g.succ) {
		panic(fmt.Sprintf("graph: node %d out of range [0,%d)", u, len(g.succ)))
	}
}

// findHalf returns the index of the plain half-edge toward v in hs, or -1.
func findHalf(hs []halfEdge, v int) int {
	for i := range hs {
		if int(hs[i].to) == v && hs[i].flow == 0 {
			return i
		}
	}
	return -1
}

// AddEdge inserts edge (u,v) with weight w, overwriting the weight if the
// edge already exists. Self-loops are rejected with ErrCycle. It reports
// whether a new edge was created (false when only the weight changed).
// Like RemoveEdge, HasEdge, Weight and SetWeight, it never matches a flow
// edge.
func (g *DAG) AddEdge(u, v int, w int64) (bool, error) {
	g.check(u)
	g.check(v)
	if u == v {
		return false, ErrCycle
	}
	if i := findHalf(g.succ[u], v); i >= 0 {
		g.succ[u][i].w = w
		g.pred[v][findHalf(g.pred[v], u)].w = w
		return false, nil
	}
	g.succ[u] = append(g.succ[u], halfEdge{to: int32(v), w: w})
	g.pred[v] = append(g.pred[v], halfEdge{to: int32(u), w: w})
	g.m++
	return true, nil
}

// AddFlow inserts a flow edge (u,v) with weight w and returns its flow id:
// the number of flow edges added before it. Self-loops are rejected with
// ErrCycle. Add every flow edge before building a DynTopo, Evaluator or
// Closure over the graph.
func (g *DAG) AddFlow(u, v int, w int64) (int, error) {
	g.check(u)
	g.check(v)
	if u == v {
		return 0, ErrCycle
	}
	id := len(g.flows)
	g.flows = append(g.flows, flowRec{u: int32(u), v: int32(v), w: w})
	g.succ[u] = append(g.succ[u], halfEdge{to: int32(v), flow: int32(id + 1), w: w})
	g.pred[v] = append(g.pred[v], halfEdge{to: int32(u), flow: int32(id + 1), w: w})
	g.m++
	return id, nil
}

// SetFlowWeight changes the weight of flow edge id and reports whether it
// differed from the weight installed.
func (g *DAG) SetFlowWeight(id int, w int64) bool {
	f := &g.flows[id]
	if f.w == w {
		return false
	}
	f.w = w
	tag := int32(id + 1)
	for i := range g.succ[f.u] {
		if g.succ[f.u][i].flow == tag {
			g.succ[f.u][i].w = w
			break
		}
	}
	for i := range g.pred[f.v] {
		if g.pred[f.v][i].flow == tag {
			g.pred[f.v][i].w = w
			break
		}
	}
	return true
}

// removeHalf deletes index i from hs by swapping in the last element.
func removeHalf(hs []halfEdge, i int) []halfEdge {
	last := len(hs) - 1
	hs[i] = hs[last]
	return hs[:last]
}

// RemoveEdge deletes edge (u,v) and reports whether it existed.
func (g *DAG) RemoveEdge(u, v int) bool {
	g.check(u)
	g.check(v)
	i := findHalf(g.succ[u], v)
	if i < 0 {
		return false
	}
	g.succ[u] = removeHalf(g.succ[u], i)
	g.pred[v] = removeHalf(g.pred[v], findHalf(g.pred[v], u))
	g.m--
	return true
}

// HasEdge reports whether edge (u,v) exists.
func (g *DAG) HasEdge(u, v int) bool {
	g.check(u)
	g.check(v)
	return findHalf(g.succ[u], v) >= 0
}

// Weight returns the weight of edge (u,v); ok is false when the edge does
// not exist.
func (g *DAG) Weight(u, v int) (w int64, ok bool) {
	g.check(u)
	g.check(v)
	if i := findHalf(g.succ[u], v); i >= 0 {
		return g.succ[u][i].w, true
	}
	return 0, false
}

// SetWeight changes the weight of an existing edge. It reports whether the
// edge existed.
func (g *DAG) SetWeight(u, v int, w int64) bool {
	g.check(u)
	g.check(v)
	i := findHalf(g.succ[u], v)
	if i < 0 {
		return false
	}
	g.succ[u][i].w = w
	g.pred[v][findHalf(g.pred[v], u)].w = w
	return true
}

// EachSucc calls fn for every successor v of u with the edge weight.
// Iteration order is unspecified.
func (g *DAG) EachSucc(u int, fn func(v int, w int64)) {
	g.check(u)
	for _, h := range g.succ[u] {
		fn(int(h.to), h.w)
	}
}

// EachPred calls fn for every predecessor u of v with the edge weight.
// Iteration order is unspecified.
func (g *DAG) EachPred(v int, fn func(u int, w int64)) {
	g.check(v)
	for _, h := range g.pred[v] {
		fn(int(h.to), h.w)
	}
}

// OutDegree returns the number of successors of u.
func (g *DAG) OutDegree(u int) int { g.check(u); return len(g.succ[u]) }

// InDegree returns the number of predecessors of v.
func (g *DAG) InDegree(v int) int { g.check(v); return len(g.pred[v]) }

// Succs returns the successors of u as a fresh slice (unordered).
func (g *DAG) Succs(u int) []int {
	g.check(u)
	out := make([]int, 0, len(g.succ[u]))
	for _, h := range g.succ[u] {
		out = append(out, int(h.to))
	}
	return out
}

// Preds returns the predecessors of v as a fresh slice (unordered).
func (g *DAG) Preds(v int) []int {
	g.check(v)
	out := make([]int, 0, len(g.pred[v]))
	for _, h := range g.pred[v] {
		out = append(out, int(h.to))
	}
	return out
}

// Edge is an (u,v,weight) triple, used for bulk edge listing and for
// recording undo information in the explorer.
type Edge struct {
	U, V int
	W    int64
}

// Edges returns every edge, flow edges included. The order is unspecified.
func (g *DAG) Edges() []Edge {
	out := make([]Edge, 0, g.m)
	for u := range g.succ {
		for _, h := range g.succ[u] {
			out = append(out, Edge{u, int(h.to), h.w})
		}
	}
	return out
}

// Clone returns a deep copy of the graph.
func (g *DAG) Clone() *DAG {
	c := New(g.N())
	for u := range g.succ {
		c.succ[u] = append([]halfEdge(nil), g.succ[u]...)
	}
	for v := range g.pred {
		c.pred[v] = append([]halfEdge(nil), g.pred[v]...)
	}
	c.flows = append([]flowRec(nil), g.flows...)
	c.m = g.m
	return c
}

// ReachableFrom returns the set of nodes reachable from u by one or more
// edges (u itself is excluded unless it lies on a cycle through u).
func (g *DAG) ReachableFrom(u int) Bits {
	g.check(u)
	seen := NewBits(g.N())
	stack := make([]int, 0, 16)
	for _, h := range g.succ[u] {
		if !seen.Get(int(h.to)) {
			seen.Set(int(h.to))
			stack = append(stack, int(h.to))
		}
	}
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, h := range g.succ[x] {
			if !seen.Get(int(h.to)) {
				seen.Set(int(h.to))
				stack = append(stack, int(h.to))
			}
		}
	}
	return seen
}

// Reaches reports whether v is reachable from u by one or more edges, using
// a DFS. Closure.Reaches answers the same question in O(1) when a closure
// is maintained.
func (g *DAG) Reaches(u, v int) bool {
	if u == v {
		// A node trivially "reaches" itself only via a cycle; detect it.
		return g.ReachableFrom(u).Get(u)
	}
	return g.ReachableFrom(u).Get(v)
}
