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

// IncEvaluator is the delta-based evaluation path: it keeps a persistent
// search graph per (application, architecture) pair and patches it move
// by move instead of rebuilding.
//
// The graph holds the task and boot nodes only. Its static skeleton is one
// flow edge per data flow, producer to consumer, weighted with the flow's
// current bus time, so without contention its longest path is the
// makespan. Its dynamic layers are re-derived only when a move touches
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
// times, which the graph's flush yields. The chained makespan then takes
// one sweep over the graph nodes and the cross-resource flows in
// chain-free start order (graph.Evaluator.ContendedMakespan); no chain is
// ever installed in the graph.
//
// Results are bit-identical to Evaluator's: both paths derive the same
// edge multiset and the same contention order (pass-1 start times with the
// flow-node-id tie break), and the longest-path fixed point of a DAG is
// unique. The equivalence tests and the fuzz harness replay random move
// streams through both paths to enforce this.
type IncEvaluator struct {
	shape

	g *graph.Evaluator

	// layers holds the dynamic layers installed in g: processor p's order
	// chain at index p, RC r's context layer at index len(Processors)+r.
	layers [][]edge3

	// Patch scratch.
	fresh   []edge3 // arena of freshly generated layer edge lists
	patches []layerPatch
	keepScr []edge3 // failure-path scratch for rebuilding a stored list
	uvScr   uvIndex // endpoint→index hash for large diff windows

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

	installed bool
}

// NewIncEvaluator builds the static skeleton for the given pair. The models
// must already be validated; a cyclic precedence graph is an error.
func NewIncEvaluator(app *model.App, arch *model.Arch) (*IncEvaluator, error) {
	s := newShape(app, arch)
	dag := graph.New(s.nG)
	for k := range app.Flows {
		fl := &app.Flows[k]
		if _, err := dag.AddFlow(fl.From, fl.To, 0); err != nil {
			return nil, fmt.Errorf("sched: precedence graph is cyclic: %w", err)
		}
	}
	g, err := graph.NewEvaluator(dag, make([]int64, s.nG))
	if err != nil {
		return nil, fmt.Errorf("sched: precedence graph is cyclic: %w", err)
	}
	return &IncEvaluator{
		shape:    s,
		g:        g,
		layers:   make([][]edge3, len(arch.Processors)+len(arch.RCs)),
		taskDurV: make([]int64, s.nTasks),
		taskIsHW: make([]bool, s.nTasks),
		flowDurV: make([]int64, s.nFlows),
		clbOf:    make([]int32, s.nTasks),
		rcInit:   make([]int64, len(arch.RCs)),
		rcDyn:    make([]int64, len(arch.RCs)),
		rcCtx:    make([]int32, len(arch.RCs)),
	}, nil
}

// Install (re)builds every dynamic layer for mapping m and evaluates it.
// Use it to seat a new mapping; afterwards call Update with the change set
// of each move.
func (e *IncEvaluator) Install(m *Mapping) (Result, error) {
	e.sumSW, e.sumHW, e.sumComm = 0, 0, 0
	for t := range e.taskDurV {
		e.taskDurV[t], e.taskIsHW[t] = 0, false
	}
	// The graph re-weights a flow edge against the weight installed in it,
	// not against these sums' stored contributions.
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
// returns the fresh evaluation. On ErrOrderCycle the graph holds a partial
// patch: the caller must revert m to its previous (acyclic) state and call
// Update again with the same change set, which is guaranteed to succeed
// and restores the evaluator exactly.
//
// stop, when non-nil, is offered a bound before the contention pass: on a
// bus with contention it receives the chain-free evaluation — every field
// exact except Makespan, a lower bound, since the chain only adds edges.
// When it returns true Update returns ErrCut at once, skipping the
// contention sweep. The layers are installed either way; the caller
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

// trim is the layer diff of staging: after common prefix/suffix trimming,
// the installed list's window old[a:ob] gives way to the replacement's
// window fr[a:fb].
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
// at from and records the patch.
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

// removeStale removes from the graph every edge of oldWin whose endpoints
// frWin lacks. An edge in both windows stays; addFresh updates its weight.
func (e *IncEvaluator) removeStale(oldWin, frWin []edge3) {
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
			e.g.RemoveEdge(int(oe.u), int(oe.v))
		}
	}
}

// addFresh inserts into the graph every edge of frWin that oldWin lacks or
// carries at another weight (AddEdge on an existing edge updates the
// weight, with no cycle risk). It returns the index in frWin of an
// insertion that would close a cycle, after applying the ones before it,
// or -1.
func (e *IncEvaluator) addFresh(oldWin, frWin []edge3) int {
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
		if e.g.AddEdge(int(ne.u), int(ne.v), ne.w) != nil {
			return wi
		}
	}
	return -1
}

// applyPatches performs every staged diff on the graph, which decides
// feasibility: first all removals, then all insertions. The global
// remove-before-add order matters — a new edge of one layer could
// otherwise close a phantom cycle through a doomed old edge of another
// layer that merely had not been removed yet.
func (e *IncEvaluator) applyPatches() error {
	for i := range e.patches {
		oldWin, frWin := e.windows(&e.patches[i])
		e.removeStale(oldWin, frWin)
	}
	for i := range e.patches {
		pt := &e.patches[i]
		oldWin, frWin := e.windows(pt)
		if wi := e.addFresh(oldWin, frWin); wi >= 0 {
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
// reflects exactly what is installed in the graph: the trimmed
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
	e.g.SetDur(t, d)
}

// updateFlow refreshes flow k's communication duration, the weight of its
// flow edge. A flow can be refreshed twice in one Update (both endpoints in
// the change set); the second refresh changes nothing.
func (e *IncEvaluator) updateFlow(m *Mapping, k int) {
	d := e.flowDur(m, k)
	e.sumComm += d - e.flowDurV[k]
	e.flowDurV[k] = d
	e.g.SetFlowWeight(k, d)
}

// setBootDur sets the boot node duration of RC r.
func (e *IncEvaluator) setBootDur(r int, d int64) { e.g.SetDur(e.BootNode(r), d) }

// finish flushes the pending patches and assembles the Result. On a bus
// with contention the stop hook sees the chain-free evaluation first, and
// a cut skips the contention sweep.
func (e *IncEvaluator) finish(stop func(lb Result) bool) (Result, error) {
	mk := e.g.Flush()
	if !e.arch.Bus.Contention {
		return e.result(mk), nil
	}
	if stop != nil && stop(e.result(mk)) {
		return Result{}, ErrCut
	}
	return e.result(e.g.ContendedMakespan()), nil
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
