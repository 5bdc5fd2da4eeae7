package sched

import (
	"errors"

	"repro/internal/model"
)

// ErrOrderCycle is returned when a mapping's orders contradict the
// application's precedence constraints (the search graph has a cycle).
var ErrOrderCycle = errors.New("sched: mapping orders contradict precedence (cycle in search graph)")

// ErrCut reports that an evaluation's stop hook rejected the move on its
// chain-free bound, so the evaluation was left unfinished.
var ErrCut = errors.New("sched: evaluation cut at the chain-free bound")

// Result summarizes one evaluation. All fields are totals over the whole
// solution; Makespan is the longest path of the search graph — the system
// execution time the paper optimizes.
type Result struct {
	Makespan model.Time
	// InitialReconfig is the configuration time of the first context of
	// each RC (the "initial reconfiguration time" series of Figure 3).
	InitialReconfig model.Time
	// DynamicReconfig is the total run-time reconfiguration spent switching
	// between consecutive contexts (the "dynamic reconfiguration time"
	// series of Figure 3).
	DynamicReconfig model.Time
	// Comm is the total bus transfer time of cross-resource flows.
	Comm model.Time
	// ComputeSW and ComputeHW are total execution times per domain.
	ComputeSW model.Time
	ComputeHW model.Time
	// Contexts is the number of non-empty contexts over all RCs.
	Contexts int
}

// csrEdge is one compacted out-edge: target node and edge weight.
type csrEdge struct {
	to int32
	w  int64
}

// Evaluator computes makespans of candidate mappings of one (application,
// architecture) pair by rebuilding the whole search graph from scratch on
// every call. It reuses internal buffers across calls, so a single
// Evaluator performs no steady-state allocation.
//
// This is the reference evaluation path (see DESIGN.md §3): IncEvaluator
// produces bit-identical Results by patching a persistent graph instead of
// rebuilding, and the equivalence tests replay move streams through both.
//
// The graph is stored in a bucketed CSR (compressed sparse row) layout that
// persists across calls: every node owns a capacity row in one flat edge
// array, the static flow edges (task → comm node → task) are pre-placed at
// the front of their rows once, and Evaluate scatters only the dynamic
// sequentialization edges directly into the remaining slots — no per-call
// adjacency reset, no counting pass, no prefix sum. A row that outgrows its
// capacity triggers a relayout; rows never shrink, so relayouts stop once
// every row has held its fullest mapping.
type Evaluator struct {
	shape

	csrHead   []int32   // len v+1: row start per node (row capacity = head[u+1]-head[u])
	csr       []csrEdge // flat row storage
	rowLen    []int32   // live entries per row (static prefix + dynamic)
	staticDeg []int32   // static out-degree per node (row reset value)
	staticIn  []int32   // static in-degree per node (indeg reset value)

	// Per-node evaluation state in struct-of-arrays layout: the Kahn pass
	// reads start/dur/indeg densely and never touches stamp/chainNext, so
	// splitting the old packed record into parallel slices keeps the hot
	// loop's cache lines free of cold fields and lets the reset between
	// calls be two bulk copies instead of a record-prototype copy (dur is
	// fully rewritten every call; stamp and chainNext are self-cleaning —
	// the relaxation pass zeroes each stamp on dequeue and unthreads the
	// chain before returning). BenchmarkNodeLayout pins the layouts against
	// each other on the isolated relaxation kernel.
	start     []int64
	dur       []int64
	indeg     []int32
	stamp     []int32 // in-queue marking for the relaxation pass
	chainNext []int32 // successor in the contention chain, -1 outside it

	queue  []int32
	clbOf  []int32 // per-task CLB count under the current Impl (HW tasks)
	resTag []int32 // per-task packed (kind,resource) of the current Assign

	// Pass-2 (bus contention) scratch.
	crossIdx []int32 // cross-resource flow node ids
	relaxQ   []int32
	qepoch   int32
}

// NewEvaluator builds an evaluator for the given application and
// architecture. The models must already be validated.
func NewEvaluator(app *model.App, arch *model.Arch) *Evaluator {
	s := newShape(app, arch)
	e := &Evaluator{
		shape:     s,
		csrHead:   make([]int32, s.v+1),
		rowLen:    make([]int32, s.v),
		staticDeg: make([]int32, s.v),
		staticIn:  make([]int32, s.v),
		start:     make([]int64, s.v),
		dur:       make([]int64, s.v),
		indeg:     make([]int32, s.v),
		stamp:     make([]int32, s.v),
		chainNext: make([]int32, s.v),
		queue:     make([]int32, s.v),
		clbOf:     make([]int32, s.nTasks),
		resTag:    make([]int32, s.nTasks),
	}
	for k := range app.Flows {
		fl := &app.Flows[k]
		cn := s.nTasks + k
		e.staticDeg[fl.From]++
		e.staticDeg[cn]++
		e.staticIn[cn]++
		e.staticIn[fl.To]++
	}
	for i := range e.chainNext {
		e.chainNext[i] = -1
	}
	e.relayout(4)
	return e
}

// relayout rebuilds the bucketed CSR, giving every row its static prefix
// plus its current dynamic fill plus headroom extra slots, and never less
// than the row held before: a row that some mapping filled keeps that room,
// so the layout only grows and relayouts stay rare instead of recurring
// whenever mappings with differently shaped rows alternate. Live dynamic
// entries (rowLen beyond the static prefix) are preserved, so it is safe
// to call mid-emission when a row overflows.
func (e *Evaluator) relayout(headroom int32) {
	newHead := make([]int32, e.v+1)
	for u := 0; u < e.v; u++ {
		used := e.staticDeg[u]
		if e.rowLen != nil && e.rowLen[u] > used {
			used = e.rowLen[u]
		}
		newHead[u+1] = newHead[u] + max(used+headroom, e.csrHead[u+1]-e.csrHead[u])
	}
	newCSR := make([]csrEdge, newHead[e.v])
	if e.csr == nil {
		// First layout: place the static flow edges at their row fronts.
		fill := make([]int32, e.v)
		for k := range e.app.Flows {
			fl := &e.app.Flows[k]
			cn := e.nTasks + k
			newCSR[newHead[fl.From]+fill[fl.From]] = csrEdge{to: int32(cn)}
			fill[fl.From]++
			newCSR[newHead[cn]+fill[cn]] = csrEdge{to: int32(fl.To)}
			fill[cn]++
		}
		copy(e.rowLen, e.staticDeg)
	} else {
		for u := 0; u < e.v; u++ {
			copy(newCSR[newHead[u]:], e.csr[e.csrHead[u]:e.csrHead[u]+e.rowLen[u]])
		}
	}
	e.csrHead = newHead
	e.csr = newCSR
}

// StartOf returns the start time of a search-graph node as of the last
// Evaluate call.
func (e *Evaluator) StartOf(node int) model.Time { return model.Time(e.start[node]) }

// DurOf returns the duration of a search-graph node as of the last
// Evaluate call.
func (e *Evaluator) DurOf(node int) model.Time { return model.Time(e.dur[node]) }

// emit scatters one dynamic search-graph edge into u's CSR row, growing the
// layout when the row is full.
func (e *Evaluator) emit(u, v int32, w int64) {
	at := e.csrHead[u] + e.rowLen[u]
	if at == e.csrHead[u+1] {
		e.relayout(8)
		at = e.csrHead[u] + e.rowLen[u]
	}
	e.csr[at] = csrEdge{to: v, w: w}
	e.rowLen[u]++
	e.indeg[v]++
}

// ctxCLBs sums the cached per-task CLB counts of context ci of RC r; the
// cache is filled by the task pass of Evaluate, making this cheaper than
// Mapping.ContextCLBs (which re-derives each task's implementation record).
func (e *Evaluator) ctxCLBs(m *Mapping, r, ci int) int64 {
	var sum int64
	for _, t := range m.Contexts[r][ci].Tasks {
		sum += int64(e.clbOf[t])
	}
	return sum
}

// Evaluate builds the search graph of mapping m and returns its evaluation.
// The mapping must satisfy CheckMapping; contradictory orders yield
// ErrOrderCycle.
func (e *Evaluator) Evaluate(m *Mapping) (Result, error) { return e.EvaluateStop(m, nil) }

// EvaluateStop is Evaluate with IncEvaluator.Update's stop hook: on a bus
// with contention, stop is offered the chain-free evaluation after pass 1
// — every field exact except Makespan, a lower bound, since pass 2 only
// delays starts — and when it returns true EvaluateStop returns ErrCut
// before the contention sort and the chain relaxation. A nil stop
// evaluates exactly.
func (e *Evaluator) EvaluateStop(m *Mapping, stop func(lb Result) bool) (Result, error) {
	var res Result

	// Reset every CSR row to its static prefix, the start times to zero and
	// the in-degrees to their static values. The durations are all
	// rewritten below; stamps and chain links are self-cleaning (see the
	// field comments).
	copy(e.rowLen, e.staticDeg)
	clear(e.start)
	copy(e.indeg, e.staticIn)

	// Node durations: tasks (also refreshing the per-task CLB and
	// resource-tag caches).
	var sumSW, sumHW int64
	for t := 0; t < e.nTasks; t++ {
		pl := m.Assign[t]
		var d int64
		if pl.Kind == model.KindProcessor {
			d = e.swTime[pl.Res][t]
			sumSW += d
		} else {
			base := int(e.implOff[t]) + m.Impl[t]
			d = e.hwTime[base]
			e.clbOf[t] = e.hwCLB[base]
			sumHW += d
		}
		e.resTag[t] = int32(pl.Kind)<<24 | int32(pl.Res)
		e.dur[t] = d
	}
	res.ComputeSW = model.Time(sumSW)
	res.ComputeHW = model.Time(sumHW)

	// Flows: the precedence edges through the communication nodes are part
	// of the static prefix; only the durations depend on the mapping. A
	// flow costs bus time exactly when its endpoints' resource tags differ.
	var sumComm int64
	for k := range e.app.Flows {
		fl := &e.app.Flows[k]
		var d int64
		if e.resTag[fl.From] != e.resTag[fl.To] {
			d = e.busTime[k]
		}
		e.dur[e.nTasks+k] = d
		sumComm += d
	}
	res.Comm = model.Time(sumComm)

	// Software sequentialization edges Esw: chain each processor's order.
	for _, order := range m.SWOrders {
		for i := 1; i < len(order); i++ {
			e.emit(int32(order[i-1]), int32(order[i]), 0)
		}
	}

	// Context sequentialization edges Ehw and boot nodes.
	for r := range m.Contexts {
		boot := int32(e.BootNode(r))
		e.dur[boot] = 0
		e.nonEmpty = e.nonEmpty[:0]
		for ci := range m.Contexts[r] {
			if len(m.Contexts[r][ci].Tasks) > 0 {
				e.nonEmpty = append(e.nonEmpty, int32(ci))
			}
		}
		res.Contexts += len(e.nonEmpty)
		if len(e.nonEmpty) == 0 {
			continue
		}
		tr := int64(e.arch.RCs[r].TR)

		// Walk the non-empty contexts once, deriving each one's initial and
		// terminal task lists in a single stamped pass. The boot node
		// carries the load time of the first context and precedes its
		// initial nodes; every following transition adds terminals(prev) →
		// initials(next) edges weighted tR × nCLB(next) — the partial-
		// reconfiguration delay.
		prevTerm := e.termBuf[:0]
		for x, ci32 := range e.nonEmpty {
			ci := int(ci32)
			curInit, curTerm := e.collectBoth(m, r, ci, e.initialBuf[:0], e.termBuf2[:0])
			w := tr * e.ctxCLBs(m, r, ci)
			if x == 0 {
				e.dur[boot] = w
				res.InitialReconfig += model.Time(w)
				for _, t := range curInit {
					e.emit(boot, t, 0)
				}
			} else {
				res.DynamicReconfig += model.Time(w)
				for _, tp := range prevTerm {
					for _, tn := range curInit {
						e.emit(tp, tn, w)
					}
				}
			}
			e.initialBuf = curInit
			e.termBuf, e.termBuf2 = curTerm, prevTerm
			prevTerm = curTerm
		}
	}

	// Pass 1: longest path ignoring bus contention.
	mk, ok := e.runDP()
	if !ok {
		return res, ErrOrderCycle
	}
	res.Makespan = model.Time(mk)

	// Pass 2: serialize bus transactions in data-ready order (a total order
	// consistent with the data-ready times, ties broken by flow index) and
	// propagate the added constraints. Serialization edges always point
	// from an earlier-ready to a later-ready transaction, so they can never
	// create a cycle and a targeted monotone relaxation from the chain
	// reaches the same fixed point as a full re-evaluation — without paying
	// for a second Kahn pass over the whole graph.
	if e.arch.Bus.Contention {
		if stop != nil && stop(res) {
			return Result{}, ErrCut
		}
		e.crossIdx = e.crossIdx[:0]
		for k := 0; k < e.nFlows; k++ {
			cn := e.nTasks + k
			if e.dur[cn] > 0 {
				e.crossIdx = append(e.crossIdx, int32(cn))
			}
		}
		if len(e.crossIdx) > 1 {
			sortByStart(e.crossIdx, e.start)
			mk = e.relaxChain(mk)
		}
	}

	res.Makespan = model.Time(mk)
	return res, nil
}

// runDP performs Kahn-order longest-path propagation over the CSR
// adjacency. It reports false when the graph is cyclic.
func (e *Evaluator) runDP() (int64, bool) {
	start, dur, indeg := e.start, e.dur, e.indeg
	head, csr := e.csrHead, e.csr
	// Every node is enqueued at most once, so a fixed-size array with a
	// cursor replaces append's per-push capacity checks.
	queue := e.queue
	qlen := 0
	for i, d := range indeg {
		if d == 0 {
			queue[qlen] = int32(i)
			qlen++
		}
	}
	var mk int64
	rowLen := e.rowLen
	for h := 0; h < qlen; h++ {
		u := queue[h]
		fin := start[u] + dur[u]
		if fin > mk {
			mk = fin
		}
		row := head[u]
		for _, ed := range csr[row : row+rowLen[u]] {
			if s := fin + ed.w; s > start[ed.to] {
				start[ed.to] = s
			}
			indeg[ed.to]--
			if indeg[ed.to] == 0 {
				queue[qlen] = ed.to
				qlen++
			}
		}
	}
	return mk, qlen == e.v
}

// relaxChain threads the sorted contention chain through the pass-1 start
// times and propagates the induced increases through the downstream cone,
// returning the updated makespan. Starts only ever grow, so a simple
// worklist converges to the unique longest-path fixed point of the graph
// plus chain.
func (e *Evaluator) relaxChain(mk int64) int64 {
	start, dur := e.start, e.dur
	stamp, chainNext := e.stamp, e.chainNext
	head, csr := e.csrHead, e.csr
	e.qepoch++
	epoch := e.qepoch
	q := e.relaxQ[:0]
	for i := 1; i < len(e.crossIdx); i++ {
		a, b := e.crossIdx[i-1], e.crossIdx[i]
		chainNext[a] = b
		if fin := start[a] + dur[a]; fin > start[b] {
			start[b] = fin
			if stamp[b] != epoch {
				stamp[b] = epoch
				q = append(q, b)
			}
		}
	}
	rowLen := e.rowLen
	for h := 0; h < len(q); h++ {
		u := q[h]
		stamp[u] = 0 // allow re-queueing if start[u] grows again later
		fin := start[u] + dur[u]
		if fin > mk {
			mk = fin
		}
		row := head[u]
		for _, ed := range csr[row : row+rowLen[u]] {
			if s := fin + ed.w; s > start[ed.to] {
				start[ed.to] = s
				if stamp[ed.to] != epoch {
					stamp[ed.to] = epoch
					q = append(q, ed.to)
				}
			}
		}
		if nx := chainNext[u]; nx >= 0 {
			if fin > start[nx] {
				start[nx] = fin
				if stamp[nx] != epoch {
					stamp[nx] = epoch
					q = append(q, nx)
				}
			}
		}
	}
	e.relaxQ = q
	// Clear the chain threading for the next call.
	for _, c := range e.crossIdx {
		chainNext[c] = -1
	}
	return mk
}

// sortByStart insertion-sorts flow nodes by (pass-1 start time, node id).
// The slices are short and nearly sorted between consecutive moves, and an
// insertion sort — unlike sort.Slice — allocates nothing. The node-id tie
// break keeps the serialization order independent of evaluation internals,
// so the full-rebuild and incremental paths derive the same chain.
func sortByStart(idx []int32, start []int64) {
	for i := 1; i < len(idx); i++ {
		x := idx[i]
		sx := start[x]
		j := i - 1
		for j >= 0 && (start[idx[j]] > sx || (start[idx[j]] == sx && idx[j] > x)) {
			idx[j+1] = idx[j]
			j--
		}
		idx[j+1] = x
	}
}
