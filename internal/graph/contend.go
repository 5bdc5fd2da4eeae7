package graph

import "fmt"

// contention is the state of Evaluator.ContendedMakespan, allocated by its
// first call. The sweep order persists across calls, so the re-sort is an
// insertion pass over a list that the last call left sorted.
type contention struct {
	order  []sweepEnt // every node and every member flow, in the last sweep order
	member []bool     // flow k is in order or in joined
	joined []int32    // flows that turned positive since the last call, not yet in order
	live   int        // member flows in order at the last call

	fin     []int64 // contended finish per node
	flowFin []int64 // contended finish per member flow
}

// sweepEnt is one entry of the sweep order: node item, or flow item-N, with
// its sort key (s, tie).
type sweepEnt struct {
	s    int64 // chain-free start: a node's start, a flow's producer's finish
	tie  int32 // a node's topological position; N + flow id for a flow
	item int32
}

// SetFlowWeight changes the weight of flow edge k. Whether anything changed
// is decided against the weight installed in the graph.
func (e *Evaluator) SetFlowWeight(k int, w int64) {
	if !e.g.SetFlowWeight(k, w) {
		return
	}
	e.mark(int(e.g.flows[k].v))
	if c := e.con; c != nil && w > 0 && !c.member[k] {
		c.member[k] = true
		c.joined = append(c.joined, int32(k))
	}
}

// ContendedMakespan flushes pending changes and returns the makespan when
// the flow edges of positive weight are transfers over one shared channel
// that serves one at a time. A transfer is a virtual node on its edge that
// lasts the edge's weight. Transfers are served in order of their
// chain-free start — the producer's finish as of the flush — ties broken by
// flow id, and each starts at the later of its producer's finish and the
// previous transfer's finish; its consumer starts after it finishes. That
// is the graph plus a chain of zero-weight edges through the transfers.
// Node durations and edge weights must be non-negative.
//
// One sweep computes the longest paths of that graph. It visits the nodes
// and the transfers sorted by (chain-free start, nodes before transfers,
// topological position or flow id), and every edge goes forward in that
// order. A node's start is at least its predecessor's, and equal only when
// the predecessor lasts zero over a zero-weight edge, where the
// topological order decides. A transfer starts when its producer finishes,
// which puts it after the producer and, as it lasts a positive time,
// strictly before the consumer. The chain links follow the order by
// construction. So each value is final when the sweep reaches it, and
// every node is visited once.
func (e *Evaluator) ContendedMakespan() int64 {
	mk := e.Flush()
	c := e.con
	if c == nil {
		c = e.initContention()
	}
	n := int32(len(e.start))
	flows := e.g.flows

	// Stage the current keys, dropping the flows that fell to zero, then
	// append the ones that turned positive.
	ord := c.order
	w, nf := 0, 0
	for _, en := range ord {
		if x := en.item; x < n {
			en.s, en.tie = e.start[x], int32(e.dt.ord[x])
		} else {
			f := &flows[x-n]
			if f.w <= 0 {
				c.member[x-n] = false
				continue
			}
			en.s = e.fin[f.u]
			nf++
		}
		ord[w] = en
		w++
	}
	ord = ord[:w]
	for _, k := range c.joined {
		f := &flows[k]
		if f.w <= 0 {
			c.member[k] = false
			continue
		}
		ord = append(ord, sweepEnt{s: e.fin[f.u], tie: n + k, item: n + k})
		nf++
	}
	c.joined = c.joined[:0]
	c.order, c.live = ord, nf
	if nf < 2 {
		// A chain of fewer than two transfers has no links: the chain-free
		// makespan is exact.
		return mk
	}
	sortSweep(ord)

	fin, flowFin, dur := c.fin, c.flowFin, e.dur
	var chain int64
	mk = 0
	for _, en := range ord {
		x := en.item
		if x >= n {
			f := &flows[x-n]
			s := fin[f.u]
			if chain > s {
				s = chain
			}
			chain = s + f.w
			flowFin[x-n] = chain
			continue
		}
		var s int64
		for _, h := range e.g.pred[x] {
			if h.flow != 0 && h.w > 0 {
				if ff := flowFin[h.flow-1]; ff > s {
					s = ff
				}
			} else if cs := fin[h.to] + h.w; cs > s {
				s = cs
			}
		}
		f := s + dur[x]
		fin[x] = f
		if f > mk {
			mk = f
		}
	}
	return mk
}

// initContention allocates the sweep state: every node, in topological
// order, and every flow of positive weight waiting to join.
func (e *Evaluator) initContention() *contention {
	n, nf := len(e.start), len(e.g.flows)
	c := &contention{
		order:   make([]sweepEnt, 0, n+nf),
		member:  make([]bool, nf),
		fin:     make([]int64, n),
		flowFin: make([]int64, nf),
	}
	for _, v := range e.dt.pos {
		c.order = append(c.order, sweepEnt{item: int32(v)})
	}
	for k := range e.g.flows {
		if e.g.flows[k].w > 0 {
			c.member[k] = true
			c.joined = append(c.joined, int32(k))
		}
	}
	e.con = c
	return c
}

// sortSweep insertion-sorts the sweep order by (s, tie).
func sortSweep(ord []sweepEnt) {
	for i := 1; i < len(ord); i++ {
		x := ord[i]
		j := i - 1
		for j >= 0 && x.before(ord[j]) {
			ord[j+1] = ord[j]
			j--
		}
		ord[j+1] = x
	}
}

// before reports whether entry a sorts before entry b.
func (a sweepEnt) before(b sweepEnt) bool {
	return a.s < b.s || (a.s == b.s && a.tie < b.tie)
}

// VerifySweep checks the order of the last ContendedMakespan call against
// the graph as it stands: every node once and exactly the flows of
// positive weight, sorted by their current keys, with every edge, every
// transfer's producer and consumer edge and every chain link going
// forward. It returns nil when that call had fewer than two transfers and
// so ran no sweep. Used by tests.
func (e *Evaluator) VerifySweep() error {
	c := e.con
	if c == nil {
		return fmt.Errorf("graph: no contended sweep has run")
	}
	if c.live < 2 {
		return nil
	}
	n := len(e.start)
	rank := make([]int, n+len(e.g.flows))
	for i := range rank {
		rank[i] = -1
	}
	for i, en := range c.order {
		x := int(en.item)
		if rank[x] >= 0 {
			return fmt.Errorf("graph: sweep item %d listed twice", x)
		}
		rank[x] = i
		want := sweepEnt{item: en.item}
		if x < n {
			want.s, want.tie = e.start[x], int32(e.dt.ord[x])
		} else {
			f := &e.g.flows[x-n]
			want.s, want.tie = e.fin[f.u], en.item
		}
		if en != want {
			return fmt.Errorf("graph: sweep entry %+v, current key %+v", en, want)
		}
		if i > 0 && !c.order[i-1].before(en) {
			return fmt.Errorf("graph: sweep entries %+v and %+v out of order", c.order[i-1], en)
		}
	}
	for v := 0; v < n; v++ {
		if rank[v] < 0 {
			return fmt.Errorf("graph: node %d missing from the sweep", v)
		}
	}
	for k, f := range e.g.flows {
		if in := rank[n+k] >= 0; in != (f.w > 0) {
			return fmt.Errorf("graph: flow %d of weight %d listed %v", k, f.w, in)
		}
	}
	for u := 0; u < n; u++ {
		for _, h := range e.g.succ[u] {
			v := int(h.to)
			if h.flow != 0 && h.w > 0 {
				x := n + int(h.flow) - 1
				if rank[u] >= rank[x] || rank[x] >= rank[v] {
					return fmt.Errorf("graph: transfer %d on %d→%d out of order (ranks %d, %d, %d)", h.flow-1, u, v, rank[u], rank[x], rank[v])
				}
			} else if rank[u] >= rank[v] {
				return fmt.Errorf("graph: edge %d→%d goes backward in the sweep (ranks %d, %d)", u, v, rank[u], rank[v])
			}
		}
	}
	return nil
}
