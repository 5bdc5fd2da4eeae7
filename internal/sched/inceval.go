package sched

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/model"
)

// edge3 is one sequentialization edge of a dynamic layer.
type edge3 struct {
	u, v int32
	w    int64
}

// layerPatch is one pending layer re-derivation: the freshly generated edge
// list lives in the shared arena at [from,to), and the stored list's
// window [a,ob) gives way to the fresh list's window [a,fb) (see trim).
type layerPatch struct {
	layer     int32
	from, to  int32
	a, ob, fb int32
}

// IncEvaluator is the delta-based evaluation path: it keeps persistent
// search graphs per (application, architecture) pair and patches them move
// by move instead of rebuilding.
//
// The graph splits into a static skeleton — the task, flow and boot nodes
// plus the precedence edges through the communication nodes, built once at
// construction — and dynamic layers re-derived only when a move touches
// them: one software order chain per processor and one context layer per
// RC (boot duration, terminal→initial transition edges and their
// reconfiguration weights). A re-derived layer is *diffed* against its
// installed edges (common prefix/suffix trimming plus a small window
// scan), so the graph mutations per move are proportional to what the move
// actually changed, not to the layer size. Longest-path start times are
// maintained by graph.Evaluator, which recomputes the suffix of its
// Pearce–Kelly dynamic topological order from the first node the patch
// changed.
//
// Bus contention needs the two-pass semantics of the reference path: the
// transaction serialization order is derived from the *chain-free* start
// times. A contention-mode evaluator therefore maintains two graphs: p1
// without the chain (feasibility and transaction ordering) and full with
// it (the makespan). A move patches p1 only; once p1's start times give
// the new chain order, full catches up in one pass that diffs its own copy
// of each changed layer against p1's and its chain against the new order.
//
// Results are bit-identical to Evaluator's: both paths derive the same
// edge multiset and the same contention order (pass-1 start times with the
// flow-node-id tie break), and the longest-path fixed point of a DAG is
// unique. The equivalence tests and the fuzz harness replay random move
// streams through both paths to enforce this.
type IncEvaluator struct {
	shape

	// p1 excludes the contention chain; nil when the bus is
	// contention-free (then full has no chain either and plays both
	// roles). full always exists and carries the makespan.
	p1   *graph.Evaluator
	full *graph.Evaluator

	// layers holds the dynamic layers installed in the order graph (p1, or
	// full without contention): processor p's order chain at index p, RC
	// r's context layer at index len(Processors)+r.
	layers [][]edge3
	// With contention, fullLayers holds the layers installed in full, and
	// lagging lists (lags marks) every layer whose full copy may differ
	// from its order-graph list.
	fullLayers [][]edge3
	lagging    []int32
	lags       []bool

	// Patch scratch.
	fresh   []edge3 // arena of freshly generated layer edge lists
	patches []layerPatch
	keepScr []edge3 // failure-path scratch for rebuilding a stored list
	uvScr   uvIndex // endpoint→index hash for large diff windows

	// busNext is the installed contention chain (full graph only): the
	// chain successor of each node, -1 where no chain edge leaves it. Only
	// members of crossIdx have one.
	busNext []int32

	// Last installed node/flow durations and Result accounting. The sums
	// are maintained incrementally: updates subtract the stored
	// contribution and add the recomputed one.
	taskDurV []int64
	taskIsHW []bool
	flowDurV []int64
	clbOf    []int32
	rcInit   []int64
	rcDyn    []int64
	rcCtx    []int32

	sumSW, sumHW, sumComm, sumInit, sumDyn int64
	sumCtx                                 int

	// crossIdx is the persistent list of cross-resource flow nodes (comm
	// duration > 0) on a contention bus, kept in its last sorted order
	// across moves so the per-move re-sort is a nearly-linear insertion
	// pass instead of a full sort from node-id order. Without contention
	// it and crossState stay nil. crossState tracks membership per flow
	// (crossAbsent/crossLive/crossStale); removals are lazy — syncFull
	// compacts the list when crossDead counts any stale entries. The list
	// is never cleared wholesale: a member leaves it only through
	// compaction, which also removes its chain edge.
	crossIdx   []int32
	crossState []int8
	crossDead  int
	crossScr   []crossKey // start-time scratch for the re-sort
	installed  bool
}

// crossKey pairs a cross-resource flow node with its chain-free start time
// for the contention-order sort.
type crossKey struct {
	s  int64
	id int32
}

const (
	crossAbsent int8 = iota
	crossLive
	crossStale
)

// NewIncEvaluator builds the static skeletons for the given pair. The
// models must already be validated; a cyclic precedence graph is an error.
func NewIncEvaluator(app *model.App, arch *model.Arch) (*IncEvaluator, error) {
	s := newShape(app, arch)
	mkGraph := func() (*graph.Evaluator, error) {
		dag := graph.New(s.v)
		for k := range app.Flows {
			fl := &app.Flows[k]
			cn := s.nTasks + k
			if _, err := dag.AddEdge(fl.From, cn, 0); err != nil {
				return nil, err
			}
			if _, err := dag.AddEdge(cn, fl.To, 0); err != nil {
				return nil, err
			}
		}
		ge, err := graph.NewEvaluator(dag, make([]int64, s.v))
		if err != nil {
			return nil, fmt.Errorf("sched: precedence graph is cyclic: %w", err)
		}
		return ge, nil
	}
	full, err := mkGraph()
	if err != nil {
		return nil, err
	}
	nLayers := len(arch.Processors) + len(arch.RCs)
	e := &IncEvaluator{
		shape:    s,
		full:     full,
		layers:   make([][]edge3, nLayers),
		busNext:  make([]int32, s.v),
		taskDurV: make([]int64, s.nTasks),
		taskIsHW: make([]bool, s.nTasks),
		flowDurV: make([]int64, s.nFlows),
		clbOf:    make([]int32, s.nTasks),
		rcInit:   make([]int64, len(arch.RCs)),
		rcDyn:    make([]int64, len(arch.RCs)),
		rcCtx:    make([]int32, len(arch.RCs)),
	}
	for i := range e.busNext {
		e.busNext[i] = -1
	}
	if arch.Bus.Contention {
		if e.p1, err = mkGraph(); err != nil {
			return nil, err
		}
		e.fullLayers = make([][]edge3, nLayers)
		e.lags = make([]bool, nLayers)
		e.crossState = make([]int8, s.nFlows)
	}
	return e, nil
}

// orderGraph returns the evaluator whose start times define the bus
// transaction order: the chain-free graph.
func (e *IncEvaluator) orderGraph() *graph.Evaluator {
	if e.p1 != nil {
		return e.p1
	}
	return e.full
}

// Install (re)builds every dynamic layer for mapping m and evaluates it.
// Use it to seat a new mapping; afterwards call Update with the change set
// of each move.
func (e *IncEvaluator) Install(m *Mapping) (Result, error) {
	e.sumSW, e.sumHW, e.sumComm = 0, 0, 0
	for t := range e.taskDurV {
		e.taskDurV[t], e.taskIsHW[t] = 0, false
	}
	// The flow refreshes below bring crossIdx's membership up to date from
	// whatever state it is in: updateFlow's transitions read crossState,
	// not the durations reset here.
	for k := range e.flowDurV {
		e.flowDurV[k] = 0
	}
	for t := 0; t < e.nTasks; t++ {
		e.updateTask(m, t)
	}
	for k := 0; k < e.nFlows; k++ {
		e.updateFlow(m, k)
	}
	e.beginPatches()
	for p := range m.SWOrders {
		e.stageProc(m, p)
	}
	for r := range m.Contexts {
		e.stageRC(m, r)
	}
	if err := e.applyPatches(); err != nil {
		return Result{}, err
	}
	e.installed = true
	return e.finish(nil)
}

// Update re-derives the layers named by the change set from mapping m and
// returns the fresh evaluation. On ErrOrderCycle only the order graph
// holds a partial patch (the full graph of a contention bus is not touched
// before the order graph has accepted the move): the caller must revert m
// to its previous (acyclic) state and call Update again with the same
// change set, which is guaranteed to succeed and restores the evaluator
// exactly.
//
// stop, when non-nil, is offered a bound before the contention pass: on a
// bus with contention it receives the chain-free evaluation — every field
// exact except Makespan, a lower bound, since the chain only adds edges.
// When it returns true Update returns ErrCut at once, leaving the full
// graph's layers and chain as they were; the next Update catches them up.
// The layers are installed in the order graph either way; the caller
// treats a cut move as applied, and reverting it is the ordinary revert.
// A nil stop evaluates exactly.
func (e *IncEvaluator) Update(m *Mapping, cs *ChangeSet, stop func(lb Result) bool) (Result, error) {
	if !e.installed {
		panic("sched: IncEvaluator.Update before Install")
	}
	// Tasks first: layer re-derivations read the refreshed CLB cache.
	for _, t := range cs.Tasks {
		e.updateTask(m, int(t))
		for _, k := range e.flowsOf[t] {
			e.updateFlow(m, int(k))
		}
	}
	e.beginPatches()
	for _, p := range cs.Procs {
		e.stageProc(m, int(p))
	}
	for _, r := range cs.RCs {
		e.stageRC(m, int(r))
	}
	if err := e.applyPatches(); err != nil {
		return Result{}, err
	}
	return e.finish(stop)
}

// ---------- layer staging and diffing ----------

func (e *IncEvaluator) beginPatches() {
	e.fresh = e.fresh[:0]
	e.patches = e.patches[:0]
}

// trim is the layer diff shared by staging and the full-graph sync: after
// common prefix/suffix trimming, the installed list's window old[a:ob]
// gives way to the replacement's window fr[a:fb].
func trim(old, fr []edge3) (a, ob, fb int) {
	for a < len(old) && a < len(fr) && old[a] == fr[a] {
		a++
	}
	ob, fb = len(old), len(fr)
	for ob > a && fb > a && old[ob-1] == fr[fb-1] {
		ob--
		fb--
	}
	return a, ob, fb
}

// stage diffs layer l's installed list against the fresh range starting
// at from and records the patch. On a contention bus the layer now lags
// in the full graph.
func (e *IncEvaluator) stage(l, from int) {
	fr := e.fresh[from:]
	a, ob, fb := trim(e.layers[l], fr)
	if a == ob && a == fb {
		return
	}
	e.patches = append(e.patches, layerPatch{
		layer: int32(l), from: int32(from), to: int32(len(e.fresh)),
		a: int32(a), ob: int32(ob), fb: int32(fb),
	})
	if e.p1 != nil && !e.lags[l] {
		e.lags[l] = true
		e.lagging = append(e.lagging, int32(l))
	}
}

// windows returns the differing windows of a staged patch.
func (e *IncEvaluator) windows(pt *layerPatch) (oldWin, frWin []edge3) {
	return e.layers[pt.layer][pt.a:pt.ob], e.fresh[pt.from+pt.a : pt.from+pt.fb]
}

// stageProc generates processor p's fresh chain edges and stages the diff.
func (e *IncEvaluator) stageProc(m *Mapping, p int) {
	from := len(e.fresh)
	order := m.SWOrders[p]
	for i := 1; i < len(order); i++ {
		e.fresh = append(e.fresh, edge3{u: int32(order[i-1]), v: int32(order[i])})
	}
	e.stage(p, from)
}

// stageRC generates RC r's fresh context edges, refreshes its boot
// duration and its contribution to the reconfiguration/context sums, and
// stages the diff.
func (e *IncEvaluator) stageRC(m *Mapping, r int) {
	e.sumInit -= e.rcInit[r]
	e.sumDyn -= e.rcDyn[r]
	e.sumCtx -= int(e.rcCtx[r])
	e.rcInit[r], e.rcDyn[r], e.rcCtx[r] = 0, 0, 0

	from := len(e.fresh)
	e.nonEmpty = e.nonEmpty[:0]
	for ci := range m.Contexts[r] {
		if len(m.Contexts[r][ci].Tasks) > 0 {
			e.nonEmpty = append(e.nonEmpty, int32(ci))
		}
	}
	e.rcCtx[r] = int32(len(e.nonEmpty))
	e.sumCtx += len(e.nonEmpty)
	if len(e.nonEmpty) == 0 {
		e.setBootDur(r, 0)
		e.stage(len(e.arch.Processors)+r, from)
		return
	}
	tr := int64(e.arch.RCs[r].TR)
	boot := int32(e.BootNode(r))
	prevTerm := e.termBuf[:0]
	for x, ci32 := range e.nonEmpty {
		ci := int(ci32)
		curInit, curTerm := e.collectBoth(m, r, ci, e.initialBuf[:0], e.termBuf2[:0])
		var w int64
		for _, t := range m.Contexts[r][ci].Tasks {
			w += int64(e.clbOf[t])
		}
		w *= tr
		if x == 0 {
			e.setBootDur(r, w)
			e.rcInit[r] = w
			for _, t := range curInit {
				e.fresh = append(e.fresh, edge3{u: boot, v: t})
			}
		} else {
			e.rcDyn[r] += w
			for _, tp := range prevTerm {
				for _, tn := range curInit {
					e.fresh = append(e.fresh, edge3{u: tp, v: tn, w: w})
				}
			}
		}
		e.initialBuf = curInit
		e.termBuf, e.termBuf2 = curTerm, prevTerm
		prevTerm = curTerm
	}
	e.sumInit += e.rcInit[r]
	e.sumDyn += e.rcDyn[r]
	e.stage(len(e.arch.Processors)+r, from)
}

// findUV returns the index of the edge (u,v) in xs, or -1.
func findUV(xs []edge3, u, v int32) int {
	for i := range xs {
		if xs[i].u == u && xs[i].v == v {
			return i
		}
	}
	return -1
}

// uvIndex is a small open-addressing hash from edge endpoints to the edge's
// index in a window slice. Context-layer diffs can carry windows of dozens
// of edges (a CLB-sum change rewrites every transition weight of the RC),
// where the quadratic findUV scans dominated the move cost; the index makes
// each lookup O(1). Rebuilt per window from a reused scratch allocation.
type uvIndex struct {
	keys []int64 // packed (u<<32|v); -1 = empty slot
	idxs []int32
	mask uint64
}

// uvSmall is the window size below which the linear findUV scan wins.
const uvSmall = 8

func (ix *uvIndex) build(win []edge3) {
	n := 16
	for n < 2*len(win) {
		n <<= 1
	}
	if cap(ix.keys) < n {
		ix.keys = make([]int64, n)
		ix.idxs = make([]int32, n)
	}
	ix.keys = ix.keys[:n]
	ix.idxs = ix.idxs[:n]
	for i := range ix.keys {
		ix.keys[i] = -1
	}
	ix.mask = uint64(n - 1)
	// Insert back to front so the lowest index wins, matching findUV's
	// first-match semantics.
	for i := len(win) - 1; i >= 0; i-- {
		key := int64(win[i].u)<<32 | int64(win[i].v)
		slot := (uint64(key) * 0x9e3779b97f4a7c15) >> 32 & ix.mask
		for ix.keys[slot] >= 0 && ix.keys[slot] != key {
			slot = (slot + 1) & ix.mask
		}
		ix.keys[slot] = key
		ix.idxs[slot] = int32(i)
	}
}

// find returns the index of (u,v) in the window the table was built from,
// or -1.
func (ix *uvIndex) find(u, v int32) int {
	key := int64(u)<<32 | int64(v)
	slot := (uint64(key) * 0x9e3779b97f4a7c15) >> 32 & ix.mask
	for {
		k := ix.keys[slot]
		if k == key {
			return int(ix.idxs[slot])
		}
		if k < 0 {
			return -1
		}
		slot = (slot + 1) & ix.mask
	}
}

// removeStale removes from g every edge of oldWin whose endpoints frWin
// lacks. An edge in both windows stays; addFresh updates its weight.
func (e *IncEvaluator) removeStale(g *graph.Evaluator, oldWin, frWin []edge3) {
	hashed := len(frWin) > uvSmall && len(oldWin) > 1
	if hashed {
		e.uvScr.build(frWin)
	}
	for _, oe := range oldWin {
		var fi int
		if hashed {
			fi = e.uvScr.find(oe.u, oe.v)
		} else {
			fi = findUV(frWin, oe.u, oe.v)
		}
		if fi < 0 {
			g.RemoveEdge(int(oe.u), int(oe.v))
		}
	}
}

// addFresh inserts into g every edge of frWin that oldWin lacks or carries
// at another weight (AddEdge on an existing edge updates the weight, with
// no cycle risk). It returns the index in frWin of an insertion that would
// close a cycle, after applying the ones before it, or -1.
func (e *IncEvaluator) addFresh(g *graph.Evaluator, oldWin, frWin []edge3) int {
	hashed := len(oldWin) > uvSmall && len(frWin) > 1
	if hashed {
		e.uvScr.build(oldWin)
	}
	for wi, ne := range frWin {
		var oi int
		if hashed {
			oi = e.uvScr.find(ne.u, ne.v)
		} else {
			oi = findUV(oldWin, ne.u, ne.v)
		}
		if oi >= 0 && oldWin[oi].w == ne.w {
			continue
		}
		if g.AddEdge(int(ne.u), int(ne.v), ne.w) != nil {
			return wi
		}
	}
	return -1
}

// applyPatches performs every staged diff on the order graph, which
// decides feasibility: first all removals, then all insertions. The global
// remove-before-add order matters — a new edge of one layer could
// otherwise close a phantom cycle through a doomed old edge of another
// layer that merely had not been removed yet.
func (e *IncEvaluator) applyPatches() error {
	og := e.orderGraph()
	for i := range e.patches {
		oldWin, frWin := e.windows(&e.patches[i])
		e.removeStale(og, oldWin, frWin)
	}
	for i := range e.patches {
		pt := &e.patches[i]
		oldWin, frWin := e.windows(pt)
		if wi := e.addFresh(og, oldWin, frWin); wi >= 0 {
			e.recordPartial(i, wi)
			return ErrOrderCycle
		}
		// Success: the installed layer is exactly the fresh list.
		e.layers[pt.layer] = append(e.layers[pt.layer][:0], e.fresh[pt.from:pt.to]...)
	}
	return nil
}

// recordPartial rewrites the stored lists of the failed patch and every
// patch after it following a mid-add cycle failure, so that each list
// reflects exactly what is installed in the order graph: the trimmed
// prefix/suffix, the window survivors, and — for the failed layer — the
// window edges applied before the failure. (Patches before failedIdx
// committed normally; later patches had their removals applied but no
// insertions.) The caller then reverts the mapping and re-runs Update with
// the same change set, which diffs these recorded lists back to the
// pre-move state.
func (e *IncEvaluator) recordPartial(failedIdx, added int) {
	for i := failedIdx; i < len(e.patches); i++ {
		pt := &e.patches[i]
		old := e.layers[pt.layer]
		_, frWin := e.windows(pt)
		scr := e.keepScr[:0]
		scr = append(scr, old[:pt.a]...)
		for _, oe := range old[pt.a:pt.ob] {
			if findUV(frWin, oe.u, oe.v) >= 0 {
				scr = append(scr, oe)
			}
		}
		scr = append(scr, old[pt.ob:]...)
		if i == failedIdx {
			for _, ne := range frWin[:added] {
				if ki := findUV(scr, ne.u, ne.v); ki >= 0 {
					scr[ki].w = ne.w // weight update that was already applied
				} else {
					scr = append(scr, ne)
				}
			}
		}
		e.layers[pt.layer] = append(old[:0], scr...)
		e.keepScr = scr
	}
}

// ---------- durations and accounting ----------

// updateTask refreshes task t's duration, compute-sum contribution and
// cached CLB count from the mapping.
func (e *IncEvaluator) updateTask(m *Mapping, t int) {
	old := e.taskDurV[t]
	if e.taskIsHW[t] {
		e.sumHW -= old
	} else {
		e.sumSW -= old
	}
	pl := m.Assign[t]
	var d int64
	hw := pl.Kind != model.KindProcessor
	if hw {
		base := int(e.implOff[t]) + m.Impl[t]
		d = e.hwTime[base]
		e.clbOf[t] = e.hwCLB[base]
		e.sumHW += d
	} else {
		d = e.swTime[pl.Res][t]
		e.sumSW += d
	}
	e.taskDurV[t] = d
	e.taskIsHW[t] = hw
	e.full.SetDur(t, d)
	if e.p1 != nil {
		e.p1.SetDur(t, d)
	}
}

// updateFlow refreshes flow k's communication duration and, on a bus with
// contention, the flow's membership in the persistent cross-resource
// list. A flow can be refreshed twice in one Update (both endpoints in the
// change set); the state machine makes the second refresh a no-op instead
// of a duplicate entry.
func (e *IncEvaluator) updateFlow(m *Mapping, k int) {
	d := e.flowDur(m, k)
	e.sumComm += d - e.flowDurV[k]
	e.flowDurV[k] = d
	e.full.SetDur(e.nTasks+k, d)
	if e.p1 == nil {
		// Without contention there is no chain to keep the list for.
		return
	}
	e.p1.SetDur(e.nTasks+k, d)
	switch cross := d > 0; {
	case cross && e.crossState[k] == crossAbsent:
		e.crossState[k] = crossLive
		e.crossIdx = append(e.crossIdx, int32(e.nTasks+k))
	case cross && e.crossState[k] == crossStale:
		e.crossState[k] = crossLive
		e.crossDead--
	case !cross && e.crossState[k] == crossLive:
		e.crossState[k] = crossStale
		e.crossDead++
	}
}

// setBootDur sets the boot node duration of RC r in both graphs.
func (e *IncEvaluator) setBootDur(r int, d int64) {
	e.full.SetDur(e.BootNode(r), d)
	if e.p1 != nil {
		e.p1.SetDur(e.BootNode(r), d)
	}
}

// ---------- the contention chain ----------

// finish flushes the pending patches, brings the full graph up to date
// and assembles the Result. A stop hook that cuts at the chain-free bound
// skips everything after the chain-free flush.
func (e *IncEvaluator) finish(stop func(lb Result) bool) (Result, error) {
	if e.p1 == nil {
		return e.result(e.full.Flush()), nil
	}
	if lb := e.p1.Flush(); stop != nil && stop(e.result(lb)) {
		return Result{}, ErrCut
	}
	e.syncFull()
	return e.result(e.full.Flush()), nil
}

// syncFull makes the full graph p1's graph plus the contention chain: the
// cross-resource flows in chain-free start order. It diffs the full copy
// of every lagging layer against p1's list and the installed chain
// against the freshly sorted cross list, and applies every removal before
// any insertion. A cross list of fewer than two members has no chain
// edges.
//
// No insertion can close a cycle. After the removals the full graph is a
// subgraph of the target, and the target is acyclic: p1 is, and chain
// edges follow the chain-free start order. Around any would-be cycle the
// chain-free starts must be non-decreasing, hence all equal, which forces
// every p1 edge on it to leave a zero-duration node and every chain edge
// to leave a positive-duration one — so the cycle would consist of chain
// edges alone, and the chain is a simple path. A failed insertion is
// therefore a bug.
func (e *IncEvaluator) syncFull() {
	for _, l := range e.lagging {
		old, fr := e.fullLayers[l], e.layers[l]
		a, ob, fb := trim(old, fr)
		e.removeStale(e.full, old[a:ob], fr[a:fb])
	}
	if e.crossDead > 0 {
		w := 0
		for _, n := range e.crossIdx {
			if e.crossState[int(n)-e.nTasks] == crossLive {
				e.crossIdx[w] = n
				w++
				continue
			}
			e.crossState[int(n)-e.nTasks] = crossAbsent
			if nx := e.busNext[n]; nx >= 0 {
				e.full.RemoveEdge(int(n), int(nx))
				e.busNext[n] = -1
			}
		}
		e.crossIdx = e.crossIdx[:w]
		e.crossDead = 0
	}
	e.sortCrossByStart()
	for i, a := range e.crossIdx {
		nx := int32(-1)
		if i+1 < len(e.crossIdx) {
			nx = e.crossIdx[i+1]
		}
		if old := e.busNext[a]; old >= 0 && old != nx {
			e.full.RemoveEdge(int(a), int(old))
			e.busNext[a] = -1
		}
	}
	for _, l := range e.lagging {
		old, fr := e.fullLayers[l], e.layers[l]
		a, ob, fb := trim(old, fr)
		if wi := e.addFresh(e.full, old[a:ob], fr[a:fb]); wi >= 0 {
			panic(fmt.Sprintf("sched: layer edge (%d,%d) cyclic in the full graph but acyclic in p1", fr[a+wi].u, fr[a+wi].v))
		}
		e.fullLayers[l] = append(old[:0], fr...)
		e.lags[l] = false
	}
	e.lagging = e.lagging[:0]
	for i := 0; i+1 < len(e.crossIdx); i++ {
		a, b := e.crossIdx[i], e.crossIdx[i+1]
		if e.busNext[a] != b {
			if err := e.full.AddEdge(int(a), int(b), 0); err != nil {
				panic(fmt.Sprintf("sched: contention chain edge (%d,%d) created a cycle", a, b))
			}
			e.busNext[a] = b
		}
	}
}

// result assembles a Result around makespan mk from the maintained sums.
func (e *IncEvaluator) result(mk int64) Result {
	return Result{
		Makespan:        model.Time(mk),
		InitialReconfig: model.Time(e.sumInit),
		DynamicReconfig: model.Time(e.sumDyn),
		Comm:            model.Time(e.sumComm),
		ComputeSW:       model.Time(e.sumSW),
		ComputeHW:       model.Time(e.sumHW),
		Contexts:        e.sumCtx,
	}
}

// sortCrossByStart insertion-sorts the cross-resource flow nodes by
// (chain-free start time, node id) — the same key the full-rebuild path
// uses, so both paths serialize the bus identically. The keys are staged
// into a contiguous scratch first (one Start lookup per node, not per
// comparison), and crossIdx arrives in its previous sorted order, so on
// typical moves the pass is nearly linear.
func (e *IncEvaluator) sortCrossByStart() {
	ge := e.orderGraph()
	if cap(e.crossScr) < len(e.crossIdx) {
		e.crossScr = make([]crossKey, len(e.crossIdx))
	}
	scr := e.crossScr[:len(e.crossIdx)]
	for i, n := range e.crossIdx {
		scr[i] = crossKey{s: ge.Start(int(n)), id: n}
	}
	for i := 1; i < len(scr); i++ {
		x := scr[i]
		j := i - 1
		for j >= 0 && (scr[j].s > x.s || (scr[j].s == x.s && scr[j].id > x.id)) {
			scr[j+1] = scr[j]
			j--
		}
		scr[j+1] = x
	}
	for i, k := range scr {
		e.crossIdx[i] = k.id
	}
}
