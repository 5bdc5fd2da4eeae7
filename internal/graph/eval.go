package graph

// Evaluator maintains the longest-path start times of a changing DAG
// incrementally. After a batch of edge insertions/removals and duration
// changes, Flush recomputes the nodes from the first changed position of
// the dynamically maintained topological order to its end, in order.
//
// This stands in for the paper's "Woodbury-type update formula" (Section
// 4.4, citing Carré): the published text does not give the formula, so we
// substitute a re-evaluation of the order's suffix over a Pearce–Kelly
// dynamic order, which has the same property the paper exploits — a move
// leaves everything before its first changed node untouched. Property
// tests check it against Longest (the from-scratch evaluation) on random
// edit sequences.
type Evaluator struct {
	g   *DAG
	dt  *DynTopo
	dur []int64

	start []int64
	fin   []int64

	// roots collects the nodes marked between flushes, deduplicated by
	// dirty. They are kept as node IDs, not positions: a reorder between a
	// mark and the flush can move them.
	dirty Bits
	roots []int32

	// maxFin/maxNode track the makespan incrementally: the sweep updates
	// them as fin values change, so Flush does not rescan every node. Only
	// when the tracked argmax node's own fin *decreases* does the true
	// maximum become unknown, and rescan requests the (rare) full pass.
	maxFin  int64
	maxNode int32
	rescan  bool

	// con is the state of ContendedMakespan, nil until its first call.
	con *contention
}

// NewEvaluator builds an evaluator over g with node durations dur. The
// slice is used in place; use SetDur to change durations so that the
// evaluator can track what to refresh. Returns ErrCycle if g is cyclic.
func NewEvaluator(g *DAG, dur []int64) (*Evaluator, error) {
	if len(dur) != g.N() {
		panic("graph: duration slice length mismatch")
	}
	dt, err := NewDynTopo(g)
	if err != nil {
		return nil, err
	}
	e := &Evaluator{
		g:     g,
		dt:    dt,
		dur:   dur,
		start: make([]int64, g.N()),
		fin:   make([]int64, g.N()),
		dirty: NewBits(g.N()),
	}
	e.fullEval()
	return e, nil
}

// fullEval recomputes every start/fin following the maintained order.
func (e *Evaluator) fullEval() {
	for i := 0; i < e.g.N(); i++ {
		v := e.dt.NodeAt(i)
		e.start[v] = e.recomputeStart(v)
		e.fin[v] = e.start[v] + e.dur[v]
	}
	e.rescanMax()
}

// rescanMax recomputes the tracked maximum fin from scratch.
func (e *Evaluator) rescanMax() {
	e.rescan = false
	var mk int64
	var mn int32
	for v, f := range e.fin {
		if f > mk {
			mk, mn = f, int32(v)
		}
	}
	e.maxFin, e.maxNode = mk, mn
}

func (e *Evaluator) recomputeStart(v int) int64 {
	var s int64
	for _, h := range e.g.pred[v] {
		if c := e.fin[h.to] + h.w; c > s {
			s = c
		}
	}
	return s
}

// AddEdge inserts edge (u,v,w) into the underlying graph, maintaining the
// topological order. If the edge would create a cycle it is not inserted
// and ErrCycle is returned. Weight updates of existing edges are allowed.
func (e *Evaluator) AddEdge(u, v int, w int64) error {
	created, err := e.g.AddEdge(u, v, w)
	if err != nil {
		return err
	}
	if created {
		if err := e.dt.OnAddEdge(u, v); err != nil {
			e.g.RemoveEdge(u, v)
			return err
		}
	}
	e.mark(v)
	return nil
}

// RemoveEdge deletes edge (u,v) and reports whether it existed.
func (e *Evaluator) RemoveEdge(u, v int) bool {
	if !e.g.RemoveEdge(u, v) {
		return false
	}
	e.mark(v)
	return true
}

// SetDur changes the duration of node v.
func (e *Evaluator) SetDur(v int, d int64) {
	if e.dur[v] == d {
		return
	}
	e.dur[v] = d
	e.mark(v)
}

// Dur returns the current duration of node v.
func (e *Evaluator) Dur(v int) int64 { return e.dur[v] }

func (e *Evaluator) mark(v int) {
	if !e.dirty.Get(v) {
		e.dirty.Set(v)
		e.roots = append(e.roots, int32(v))
	}
}

// Flush processes all pending changes and returns the current makespan.
//
// It finds the smallest current position among the nodes marked since
// the last flush and recomputes every node from there to the end of the
// order, in order, each from its predecessors' finish times. That is
// exact: a node before the first marked position has no changed input,
// and each later node is recomputed after all of its predecessors. On
// the explorer's moves the nodes past the first marked one almost all
// change anyway (the order chains carry a change downstream), so visiting
// them in a plain sweep costs less than tracking which ones to visit.
func (e *Evaluator) Flush() int64 {
	if len(e.roots) == 0 {
		return e.maxFin
	}
	lo := e.g.N()
	for _, v := range e.roots {
		e.dirty.Clear(int(v))
		if p := e.dt.ord[v]; p < lo {
			lo = p
		}
	}
	e.roots = e.roots[:0]
	for _, v := range e.dt.pos[lo:] {
		ns := e.recomputeStart(v)
		nf := ns + e.dur[v]
		if ns == e.start[v] && nf == e.fin[v] {
			continue
		}
		e.start[v] = ns
		e.fin[v] = nf
		if nf >= e.maxFin {
			e.maxFin, e.maxNode = nf, int32(v)
		} else if int32(v) == e.maxNode {
			// The argmax node shrank; the true maximum may now be a node
			// this sweep never changed.
			e.rescan = true
		}
	}
	if e.rescan {
		e.rescanMax()
	}
	return e.maxFin
}

// Start returns the longest-path start time of v as of the last Flush.
func (e *Evaluator) Start(v int) int64 { return e.start[v] }

// Makespan returns the current makespan, flushing pending changes first.
func (e *Evaluator) Makespan() int64 { return e.Flush() }

// Graph returns the underlying graph (callers must mutate it only through
// the evaluator).
func (e *Evaluator) Graph() *DAG { return e.g }
