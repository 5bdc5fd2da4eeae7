package core

import (
	"fmt"
	"math/rand"

	"repro/internal/anneal"
	"repro/internal/model"
	"repro/internal/objective"
	"repro/internal/sched"
)

// move is the single reusable anneal.Move of an explorer. Propose fills in
// kind and parameters; Apply journals and performs the mutation, then
// re-evaluates the search graph through the configured path — a cycle
// (contradictory orders), found by the placement check or by the
// evaluation, makes the move infeasible and rolls the journal back,
// realizing the "a move will not be performed if a cycle appears" rule of
// Section 4.3. Revert replays the journal.
type move struct {
	e *Explorer
	params

	prevRes  sched.Result
	prevCost float64
	prevTick uint64
}

// params are a move's kind and parameters, as Propose draws them. Their
// meaning depends on kind. For reassignments: a = task, b = destination
// resource kind, c = resource index, d = context index (-1 = fresh),
// p = insert-before task (-1 = append).
type params struct {
	kind          int
	a, b, c, d, p int
}

// Kind implements anneal.Move.
func (m *move) Kind() int { return m.kind }

// Apply implements anneal.Move.
//
// The change set is NOT cleared per move: it accumulates every layer whose
// installed graph state may disagree with the current mapping, and only a
// successful incremental update (which re-derives exactly those layers)
// consumes it. Rolled-back moves therefore never resynchronize the
// evaluator eagerly — their stale layers simply ride along with the next
// evaluated move, which makes Revert O(journal) with no graph work at all.
//
// Three shortcuts keep the trajectory exact. An m1 reorder that would
// put its task back where it sits is not performed: its evaluation is the
// current one. A reassignment whose placement orders its task against its
// own precedence is refused before any evaluation (doReassignTo). And on
// both paths the gate sees the chain-free bound before the contention
// pass; a move it rejects there is left unfinished and reverted unread
// (DESIGN.md §3.5).
func (m *move) Apply(g *anneal.Gate) bool {
	e := m.e
	e.journal.reset()
	e.journal.area = e.area
	m.prevRes, m.prevCost = e.curRes, e.curCost
	m.prevTick = e.stateTick
	if m.noop() {
		e.noops++
		if e.cfg.Paranoid {
			e.checkEval("a no-op reorder", e.curRes)
		}
		if !e.speculating {
			e.offerFront()
		}
		return true
	}
	// Invalidate the candidate pools for the applied state; every failure
	// or revert path restores prevTick along with the mapping, so pools
	// built before the move stay valid across rejected moves.
	e.stateTick++
	if !m.mutate() {
		// The mutation stopped midway: undo whatever it already did. The
		// evaluator was not touched, and the marks this attempt added to
		// the change set only name layers that are in their pre-move state
		// (re-deriving them later is a no-op diff).
		e.rollback()
		e.stateTick = m.prevTick
		return false
	}
	e.settleArea()
	var (
		res sched.Result
		err error
	)
	e.gate = g
	if e.inc != nil {
		res, err = e.inc.Update(e.cur, e.cs, e.stop)
	} else {
		res, err = e.fullEval().EvaluateStop(e.cur, e.stop)
	}
	switch {
	case err == sched.ErrCut:
		// On the incremental path the layers are installed, so the change
		// set is consumed; Revert re-marks them like any rejected move's.
		e.cs.Reset()
		e.cuts++
		if e.cfg.Paranoid {
			e.checkCut(g)
		}
		if e.front != nil && !e.speculating {
			// The bound point was covered, so the exact point's offer
			// would have been refused; it still takes its ID.
			e.frontTick++
		}
		return true
	case err != nil:
		// The move closed a cycle: restore the mapping and leave the
		// partially patched layers recorded in the change set; the next
		// update re-derives them from the restored state.
		e.rollback()
		e.stateTick = m.prevTick
		return false
	}
	e.cs.Reset()
	if e.cfg.Paranoid {
		if e.inc == nil {
			e.checkMapping(fmt.Sprintf("move kind %d", m.kind))
		} else {
			e.checkEval(fmt.Sprintf("the incremental update of move kind %d", m.kind), res)
		}
	}
	e.curRes, e.curCost = res, e.costOf(res)
	// Every feasible evaluation — accepted or not — is a visited point of
	// the objective space; offer it to the in-run Pareto archive. A
	// batched run offers only what it accepts (Explorer.consumed).
	if !e.speculating {
		e.offerFront()
	}
	return true
}

// noop reports whether the move is an m1 reorder whose source task
// already sits right before its destination task: performing it would
// rebuild the same order.
func (m *move) noop() bool {
	if m.kind != MoveReorder {
		return false
	}
	order := m.e.cur.SWOrders[m.a]
	i := indexOf(order, m.b)
	return i >= 0 && i+1 < len(order) && order[i+1] == m.c
}

// cutOnBound is the evaluators' stop hook. lb is the applied mapping's
// chain-free evaluation, exact but for a makespan that can only grow, and
// the cost cannot decrease as the makespan grows (New checks the
// scalarizer), so costOf(lb) bounds the move's cost from below. It
// cuts when the gate rejects that bound and — in a serial run, which
// offers every evaluation to the front — when the front covers the bound
// point, so that the exact point's offer would have been refused too.
func (e *Explorer) cutOnBound(lb sched.Result) bool {
	cost := e.costOf(lb)
	if !e.gate.Rejects(cost) {
		return false
	}
	if e.front != nil && !e.speculating {
		objective.ProjectArea(e.cfg.FrontMetrics, e.arch, e.cur, lb, e.area, e.frontCoords)
		if !e.front.Covers(e.frontCoords) {
			return false
		}
	}
	e.cutCost = cost
	return true
}

// checkMapping is the Paranoid check that the current mapping is valid
// after what and that the running area is its area.
func (e *Explorer) checkMapping(what string) {
	if err := sched.CheckMapping(e.app, e.arch, e.cur); err != nil {
		panic(fmt.Sprintf("core: mapping corrupt after %s: %v", what, err))
	}
	if area := objective.HWAreaOf(e.app, e.cur); e.area != area || len(e.areaPend) > 0 {
		panic(fmt.Sprintf("core: running area %d (%d tasks pending) after %s, but the mapping's area is %d", e.area, len(e.areaPend), what, area))
	}
}

// rebuild is the Paranoid oracle: a full rebuild of the current mapping.
func (e *Explorer) rebuild(what string) sched.Result {
	e.checkMapping(what)
	full, err := e.fullEval().Evaluate(e.cur)
	if err != nil {
		panic(fmt.Sprintf("core: a full rebuild rejects the mapping after %s: %v", what, err))
	}
	return full
}

// checkEval is the Paranoid check that res is the current mapping's
// evaluation.
func (e *Explorer) checkEval(what string, res sched.Result) {
	if full := e.rebuild(what); full != res {
		panic(fmt.Sprintf("core: %s diverged from a full rebuild: got %+v, full %+v", what, res, full))
	}
}

// checkRefusal is the Paranoid check of a placement doReassignTo
// refused: a full rebuild of the mapping as placed must find the cycle.
func (e *Explorer) checkRefusal(t int) {
	e.settleArea() // the placement is made; the rollback that follows restores the area
	e.checkMapping("a refused placement")
	if _, err := e.fullEval().Evaluate(e.cur); err != sched.ErrOrderCycle {
		panic(fmt.Sprintf("core: refused the placement %+v of task %d, but a full rebuild finds no cycle (%v)", e.cur.Assign[t], t, err))
	}
}

// checkCut is the Paranoid check of a cut move: a full rebuild of the
// applied mapping costs at least the bound, the gate's drawn u rejects
// that exact cost, and in a serial run the exact point is covered by the
// front, as its bound point was.
func (e *Explorer) checkCut(g *anneal.Gate) {
	full := e.rebuild("a cut move")
	cost := e.costOf(full)
	if cost < e.cutCost || g.Accepts(cost) {
		panic(fmt.Sprintf("core: move cut at bound cost %v, but its exact cost %v is not rejected (%+v)", e.cutCost, cost, full))
	}
	if e.front != nil && !e.speculating {
		objective.ProjectArea(e.cfg.FrontMetrics, e.arch, e.cur, full, e.area, e.frontCoords)
		if !e.front.Covers(e.frontCoords) {
			panic(fmt.Sprintf("core: cut move's exact point %v is not covered by the front", e.frontCoords))
		}
	}
}

// Revert implements anneal.Move. The mapping is rolled back via the
// journal; the incremental evaluator is left stale on purpose — the move's
// layers are re-marked into the change set (recovered from the journal
// before it is cleared), so the next evaluated move re-derives them from
// the restored mapping.
func (m *move) Revert() {
	e := m.e
	if e.inc != nil {
		m.remark()
	}
	e.rollback()
	e.curRes, e.curCost = m.prevRes, m.prevCost
	// The rollback restored the exact state the pools at prevTick describe.
	e.stateTick = m.prevTick
	if e.cfg.Paranoid {
		e.checkMapping("a revert")
	}
}

// remark translates the journaled undo ops of the applied move back into
// change-set marks: the successful update consumed the move's marks, but
// reverting makes those same layers stale again.
func (m *move) remark() {
	e := m.e
	for i := range e.journal.ops {
		op := &e.journal.ops[i]
		switch op.kind {
		case opAssign, opImpl:
			t := int(op.a)
			e.cs.AddTask(t)
			// An implementation change on an RC task shifts its context's
			// CLB sum and thus the RC's reconfiguration weights, without
			// any container op appearing in the journal (doImpl). Runs
			// before rollback, but an impl move never changes placement,
			// so reading the applied-state Assign is safe.
			if pl := e.cur.Assign[t]; pl.Kind == model.KindRC {
				e.cs.AddRC(pl.Res)
			}
		case opSWInsert, opSWRemove:
			e.cs.AddProc(int(op.a))
		default: // every context op carries its RC in a
			e.cs.AddRC(int(op.a))
		}
	}
}

func (m *move) mutate() bool {
	switch m.kind {
	case MoveReorder:
		return m.e.doReorder(m.a, m.b, m.c)
	case MoveReassign, MoveRemoveRes:
		return m.e.doReassignTo(m.a, model.ResourceKind(m.b), m.c, m.d, m.p)
	case MoveCreateRes:
		return m.e.doCreate(m.a, model.ResourceKind(m.b), m.c)
	case MoveImpl:
		return m.e.doImpl(m.a, m.b)
	case MoveCtxSwap:
		return m.e.doCtxSwap(m.a, m.b)
	case MoveCtxSplit:
		return m.e.doCtxSplit(m.a, m.b, m.c)
	}
	return false
}

// destination identifies a reassignment target resource.
type destination struct {
	kind   model.ResourceKind
	res    int
	ctx    int // context index within the RC; -1 = open a fresh context
	before int // software insertion point (task id); -1 = append
}

// ---------- candidate pools (prefetched proposal scan lists) ----------

// poolProcs2 returns the processors with at least two ordered tasks,
// rescanning only when the mapping changed since the pool was built.
func (e *Explorer) poolProcs2() []int {
	pl := &e.pools
	if pl.procs2Tick != e.stateTick {
		pl.procs2Tick = e.stateTick
		procs := pl.procs2[:0]
		for p, order := range e.cur.SWOrders {
			if len(order) >= 2 {
				procs = append(procs, p)
			}
		}
		pl.procs2 = procs
	}
	return pl.procs2
}

// poolSingles returns the lone tasks of singleton resources.
func (e *Explorer) poolSingles() []int {
	pl := &e.pools
	if pl.singlesTick != e.stateTick {
		pl.singlesTick = e.stateTick
		singles := pl.singles[:0]
		for _, order := range e.cur.SWOrders {
			if len(order) == 1 {
				singles = append(singles, order[0])
			}
		}
		for r := range e.cur.Contexts {
			total, last := 0, -1
			for _, c := range e.cur.Contexts[r] {
				total += len(c.Tasks)
				if len(c.Tasks) > 0 {
					last = c.Tasks[0]
				}
			}
			if total == 1 {
				singles = append(singles, last)
			}
		}
		// Per-ASIC occupancy: count tasks and remember the latest-seen
		// task of each ASIC; singletons qualify.
		cnt := e.scratchB[:0]
		one := e.scratchC[:0]
		for range e.arch.ASICs {
			cnt = append(cnt, 0)
			one = append(one, -1)
		}
		for t, p := range e.cur.Assign {
			if p.Kind == model.KindASIC {
				cnt[p.Res]++
				one[p.Res] = t
			}
		}
		for x := range e.arch.ASICs {
			if cnt[x] == 1 {
				singles = append(singles, one[x])
			}
		}
		pl.singles, e.scratchB, e.scratchC = singles, cnt, one
	}
	return pl.singles
}

// poolEmpty returns the unused template resource slots, encoded as
// kind+3*index to keep the draw allocation-free.
func (e *Explorer) poolEmpty() []int {
	const (
		tagProc = iota
		tagRC
		tagASIC
	)
	pl := &e.pools
	if pl.emptyTick != e.stateTick {
		pl.emptyTick = e.stateTick
		empty := pl.empty[:0]
		for p, order := range e.cur.SWOrders {
			if len(order) == 0 {
				empty = append(empty, tagProc+3*p)
			}
		}
		for r := range e.cur.Contexts {
			if e.cur.NumContexts(r) == 0 {
				empty = append(empty, tagRC+3*r)
			}
		}
		used := e.scratchB[:0]
		for range e.arch.ASICs {
			used = append(used, 0)
		}
		for _, p := range e.cur.Assign {
			if p.Kind == model.KindASIC {
				used[p.Res] = 1
			}
		}
		for x, u := range used {
			if u == 0 {
				empty = append(empty, tagASIC+3*x)
			}
		}
		pl.empty, e.scratchB = empty, used
	}
	return pl.empty
}

// poolRCs2 returns the RCs whose context order holds at least two contexts.
func (e *Explorer) poolRCs2() []int {
	pl := &e.pools
	if pl.rcs2Tick != e.stateTick {
		pl.rcs2Tick = e.stateTick
		rcs := pl.rcs2[:0]
		for r := range e.cur.Contexts {
			if len(e.cur.Contexts[r]) >= 2 {
				rcs = append(rcs, r)
			}
		}
		pl.rcs2 = rcs
	}
	return pl.rcs2
}

// poolSplit returns the splittable (rc, context) pairs encoded as
// rc*maxCtx+ci, the encoding stride, and the first context-less RC (-1 when
// every RC has a context).
func (e *Explorer) poolSplit() (split []int, maxCtx, emptyRC int) {
	pl := &e.pools
	if pl.splitTick != e.stateTick {
		pl.splitTick = e.stateTick
		pl.emptyRC = -1
		for r := range e.cur.Contexts {
			if len(e.cur.Contexts[r]) == 0 {
				pl.emptyRC = r
				break
			}
		}
		maxCtx := 0
		for r := range e.cur.Contexts {
			if len(e.cur.Contexts[r]) > maxCtx {
				maxCtx = len(e.cur.Contexts[r])
			}
		}
		split := pl.split[:0]
		for r := range e.cur.Contexts {
			for ci := range e.cur.Contexts[r] {
				if len(e.cur.Contexts[r][ci].Tasks) >= 2 {
					split = append(split, r*maxCtx+ci)
				}
			}
		}
		pl.split, pl.splitMaxCtx = split, maxCtx
	}
	return pl.split, pl.splitMaxCtx, pl.emptyRC
}

// ---------- proposal helpers (parameter drawing) ----------

// proposeReorder draws m1: a processor with at least two tasks and a
// (source, destination) pair in its order.
func (e *Explorer) proposeReorder(rng *rand.Rand) bool {
	procs := e.poolProcs2()
	if len(procs) == 0 {
		return false
	}
	p := procs[rng.Intn(len(procs))]
	order := e.cur.SWOrders[p]
draw:
	for attempt := 0; attempt < 6; attempt++ {
		i := rng.Intn(len(order))
		j := rng.Intn(len(order))
		if i == j {
			continue
		}
		vs, vd := order[i], order[j]
		// Legality pre-check on the (static) precedence closure, O(1) per
		// element of the displaced segment: moving vs before vd drags it
		// past the tasks in between, which must not be precedence-ordered
		// against it. Paths through other resources can still produce a
		// cycle; the evaluation's cycle detection remains the final
		// arbiter.
		if i > j { // vs moves earlier, jumping over order[j..i-1]
			for _, y := range order[j:i] {
				if e.precReach.Reaches(y, vs) {
					continue draw
				}
			}
		} else { // vs moves later, letting order[i+1..j-1] overtake it
			for _, y := range order[i+1 : j] {
				if e.precReach.Reaches(vs, y) {
					continue draw
				}
			}
		}
		e.mv.a, e.mv.b, e.mv.c = p, vs, vd
		return true
	}
	return false
}

// proposeReassign draws m2: a source task and a destination resource drawn
// uniformly among every resource able to host it (each RC context counts as
// a resource, Section 3.3; an RC without contexts offers a fresh one). A
// draw fails only when the source genuinely has nowhere to go. Drawing
// resources rather than destination *tasks* keeps the chain irreducible:
// with task-indexed draws an all-hardware state could never repopulate the
// (empty) processor.
func (e *Explorer) proposeReassign(rng *rand.Rand) bool {
	vs := rng.Intn(e.app.N())
	dest, ok := e.pickDestination(rng, vs)
	if !ok {
		return false
	}
	e.mv.a, e.mv.b, e.mv.c, e.mv.d, e.mv.p = vs, int(dest.kind), dest.res, dest.ctx, dest.before
	return true
}

// pickDestination reservoir-samples a hosting resource for task vs,
// excluding the one it currently occupies. Destinations are weighted by
// their current task population — the paper draws a destination *task*, so
// larger resources attract proportionally more reassignments, which is
// what consolidates hardware tasks into few large contexts — with a floor
// of one so that empty resources (in particular an emptied processor)
// remain reachable and the chain stays irreducible.
func (e *Explorer) pickDestination(rng *rand.Rand, vs int) (destination, bool) {
	task := &e.app.Tasks[vs]
	pl := e.cur.Assign[vs]
	var chosen destination
	total := 0
	consider := func(d destination, weight int) {
		if weight < 1 {
			weight = 1
		}
		total += weight
		if rng.Intn(total) < weight {
			chosen = d
		}
	}
	if task.CanSW() {
		for p := range e.arch.Processors {
			if pl.Kind == model.KindProcessor && pl.Res == p {
				continue
			}
			before := -1
			if order := e.cur.SWOrders[p]; len(order) > 0 {
				before = order[rng.Intn(len(order))]
			}
			consider(destination{kind: model.KindProcessor, res: p, ctx: -1, before: before}, len(e.cur.SWOrders[p]))
		}
	}
	if task.CanHW() {
		for r := range e.arch.RCs {
			if task.MinCLBs() > e.arch.RCs[r].NCLB {
				continue
			}
			if len(e.cur.Contexts[r]) == 0 {
				consider(destination{kind: model.KindRC, res: r, ctx: -1}, 1)
				continue
			}
			for ci := range e.cur.Contexts[r] {
				if pl.Kind == model.KindRC && pl.Res == r && pl.Ctx == ci {
					continue
				}
				consider(destination{kind: model.KindRC, res: r, ctx: ci}, len(e.cur.Contexts[r][ci].Tasks))
			}
		}
		asicLoad := 0
		for _, p := range e.cur.Assign {
			if p.Kind == model.KindASIC {
				asicLoad++
			}
		}
		for x := range e.arch.ASICs {
			if pl.Kind == model.KindASIC && pl.Res == x {
				continue
			}
			consider(destination{kind: model.KindASIC, res: x, ctx: -1}, asicLoad)
		}
	}
	return chosen, total > 0
}

// proposeRemoveRes draws m3: a resource executing a single task loses it to
// the destination task's resource, emptying (removing) the source resource.
func (e *Explorer) proposeRemoveRes(rng *rand.Rand) bool {
	singles := e.poolSingles()
	if len(singles) == 0 {
		return false
	}
	vs := singles[rng.Intn(len(singles))]
	dest, ok := e.pickDestination(rng, vs)
	if !ok {
		return false
	}
	e.mv.a, e.mv.b, e.mv.c, e.mv.d, e.mv.p = vs, int(dest.kind), dest.res, dest.ctx, dest.before
	return true
}

// proposeCreateRes draws m4: an unused template resource is instantiated
// with a randomly chosen task. Empty slots are encoded into a scratch list
// as kind*maxRes+index to keep the draw allocation-free.
func (e *Explorer) proposeCreateRes(rng *rand.Rand) bool {
	empty := e.poolEmpty()
	if len(empty) == 0 {
		return false
	}
	enc := empty[rng.Intn(len(empty))]
	kind := [3]model.ResourceKind{model.KindProcessor, model.KindRC, model.KindASIC}[enc%3]
	res := enc / 3
	for try := 0; try < 8; try++ {
		vs := rng.Intn(e.app.N())
		if !e.canHost(vs, sched.Placement{Kind: kind, Res: res}) {
			continue
		}
		e.mv.a, e.mv.b, e.mv.c = vs, int(kind), res
		return true
	}
	return false
}

// proposeImpl draws an implementation change for a hardware task with more
// than one Pareto point.
func (e *Explorer) proposeImpl(rng *rand.Rand) bool {
	n := e.app.N()
	off := rng.Intn(n)
	for i := 0; i < n; i++ {
		t := (off + i) % n
		pl := e.cur.Assign[t]
		if pl.Kind == model.KindProcessor || len(e.app.Tasks[t].HW) < 2 {
			continue
		}
		j := rng.Intn(len(e.app.Tasks[t].HW) - 1)
		if j >= e.cur.Impl[t] {
			j++
		}
		e.mv.a, e.mv.b = t, j
		return true
	}
	return false
}

// proposeCtxSwap draws an adjacent transposition in some RC's context order.
func (e *Explorer) proposeCtxSwap(rng *rand.Rand) bool {
	rcs := e.poolRCs2()
	if len(rcs) == 0 {
		return false
	}
	r := rcs[rng.Intn(len(rcs))]
	i := rng.Intn(len(e.cur.Contexts[r]) - 1)
	// Pre-filter: the swap is hopeless when a precedence path leads from
	// the earlier context into the later one.
	for _, a := range e.cur.Contexts[r][i].Tasks {
		for _, b := range e.cur.Contexts[r][i+1].Tasks {
			if e.precReach.Reaches(a, b) {
				return false
			}
		}
	}
	e.mv.a, e.mv.b = r, i
	return true
}

// proposeCtxSplit draws a temporal-partitioning move: either split a
// multi-task context in two, or — when an RC has no context at all — seed
// its first context with a hardware-capable task.
func (e *Explorer) proposeCtxSplit(rng *rand.Rand) bool {
	splittable, maxCtx, emptyRC := e.poolSplit()
	// Seed an empty RC first if one exists: hardware is otherwise
	// unreachable when the initial partition placed everything in software.
	if emptyRC >= 0 {
		r := emptyRC
		n := e.app.N()
		off := rng.Intn(n)
		for i := 0; i < n; i++ {
			t := (off + i) % n
			if e.canHost(t, sched.Placement{Kind: model.KindRC, Res: r}) {
				e.mv.a, e.mv.b, e.mv.c = r, -1, t
				return true
			}
		}
		return false
	}
	if !e.cfg.EnableCtxSplit {
		// Paper-faithful mode: contexts are created only by capacity
		// overflow in m2 (and the seeding above).
		return false
	}
	if len(splittable) == 0 {
		return false
	}
	enc := splittable[rng.Intn(len(splittable))]
	r, ci := enc/maxCtx, enc%maxCtx
	size := len(e.cur.Contexts[r][ci].Tasks)
	e.mv.a, e.mv.b, e.mv.c = r, ci, 1+rng.Intn(size-1)
	return true
}

// ---------- mutation primitives ----------

// canHost reports whether task t may execute on the given placement's
// resource.
func (e *Explorer) canHost(t int, dest sched.Placement) bool {
	task := &e.app.Tasks[t]
	switch dest.Kind {
	case model.KindProcessor:
		return task.CanSW()
	case model.KindRC:
		return task.CanHW() && task.MinCLBs() <= e.arch.RCs[dest.Res].NCLB
	case model.KindASIC:
		return task.CanHW()
	}
	return false
}

// doReorder realizes m1: remove vs from processor p's order and reinsert it
// immediately before vd (the paper's example: vs=B, vd=A turns A,C,B into
// B,A,C).
func (e *Explorer) doReorder(p, vs, vd int) bool {
	if !e.swRemove(p, vs) {
		return false
	}
	pos := indexOf(e.cur.SWOrders[p], vd)
	if pos < 0 {
		return false
	}
	e.swInsert(p, pos, vs)
	return true
}

// doReassignTo realizes m2/m3: detach vs from its resource and attach it to
// the destination resource. Detaching may delete vs's emptied context,
// shifting later context indices of the same RC, so the destination index
// is adjusted first. A placement that closes a cycle on its own resource
// (closesCycle) is refused: the move fails as the evaluation's cycle
// detection would have failed it, without the evaluation.
func (e *Explorer) doReassignTo(vs int, kind model.ResourceKind, res, ctx, before int) bool {
	pl := e.cur.Assign[vs]
	if kind == model.KindRC && pl.Kind == model.KindRC && pl.Res == res && ctx >= 0 &&
		len(e.cur.Contexts[pl.Res][pl.Ctx].Tasks) == 1 {
		if pl.Ctx == ctx {
			return false // sole occupant moving into its own dying context
		}
		if pl.Ctx < ctx {
			ctx--
		}
	}
	e.detach(vs)
	switch kind {
	case model.KindProcessor:
		if !e.app.Tasks[vs].CanSW() {
			return false
		}
		e.attachSWBefore(vs, res, before)
	case model.KindRC:
		if !e.attachCtx(vs, res, ctx) {
			return false
		}
	case model.KindASIC:
		return e.attachASIC(vs, res)
	default:
		return false
	}
	if e.closesCycle(vs) {
		e.refusals++
		if e.cfg.Paranoid {
			e.checkRefusal(vs)
		}
		return false
	}
	return true
}

// closesCycle is the legality check of Section 4.3 for task t just placed
// on a processor or an RC, on the precedence closure. The resource orders
// every task before t's position (on a processor) or in an earlier
// context (on an RC) ahead of t, and t ahead of every task after it: the
// processor chain links consecutive tasks, and each context's terminal
// tasks precede every initial task of the next, while every task of a
// context reaches one of its terminals and is reached from one of its
// initials. So a precedence descendant of t among the tasks before it, or
// an ancestor among the tasks after it, closes a cycle. Cycles that pass
// through another resource are left to the evaluation.
func (e *Explorer) closesCycle(t int) bool {
	pl := e.cur.Assign[t]
	reach := e.precReach
	switch pl.Kind {
	case model.KindProcessor:
		order := e.cur.SWOrders[pl.Res]
		i := indexOf(order, t)
		for _, y := range order[:i] {
			if reach.Reaches(t, y) {
				return true
			}
		}
		for _, y := range order[i+1:] {
			if reach.Reaches(y, t) {
				return true
			}
		}
	case model.KindRC:
		for ci, c := range e.cur.Contexts[pl.Res] {
			for _, y := range c.Tasks {
				if ci < pl.Ctx && reach.Reaches(t, y) || ci > pl.Ctx && reach.Reaches(y, t) {
					return true
				}
			}
		}
	}
	return false
}

// doCreate realizes m4: detach vs and attach it to the (currently unused)
// resource slot.
func (e *Explorer) doCreate(vs int, kind model.ResourceKind, res int) bool {
	e.detach(vs)
	switch kind {
	case model.KindProcessor:
		if !e.app.Tasks[vs].CanSW() {
			return false
		}
		e.attachSWBefore(vs, res, -1)
		return true
	case model.KindRC:
		return e.attachCtx(vs, res, -1)
	case model.KindASIC:
		return e.attachASIC(vs, res)
	}
	return false
}

// doImpl changes the implementation point of a hardware task, respecting
// the capacity of its context.
func (e *Explorer) doImpl(t, j int) bool {
	pl := e.cur.Assign[t]
	task := &e.app.Tasks[t]
	if j < 0 || j >= len(task.HW) {
		return false
	}
	switch pl.Kind {
	case model.KindASIC:
		e.logImpl(t)
		e.cur.Impl[t] = j
		return true
	case model.KindRC:
		delta := task.HW[j].CLBs - task.HW[e.cur.Impl[t]].CLBs
		if e.cur.ContextCLBs(e.app, pl.Res, pl.Ctx)+delta > e.arch.RCs[pl.Res].NCLB {
			return false
		}
		e.logImpl(t)
		e.cur.Impl[t] = j
		// The context's CLB sum changed, so its reconfiguration weights did.
		e.cs.AddRC(pl.Res)
		return true
	}
	return false
}

// doCtxSwap exchanges contexts i and i+1 of RC r in the sequential order Lc.
func (e *Explorer) doCtxSwap(r, i int) bool {
	ctxs := e.cur.Contexts[r]
	if i < 0 || i+1 >= len(ctxs) {
		return false
	}
	e.journal.log(opCtxSwap, int32(r), int32(i), 0, 0)
	e.cs.AddRC(r)
	ctxs[i], ctxs[i+1] = ctxs[i+1], ctxs[i]
	for _, t := range ctxs[i].Tasks {
		e.cur.Assign[t].Ctx = i
	}
	for _, t := range ctxs[i+1].Tasks {
		e.cur.Assign[t].Ctx = i + 1
	}
	return true
}

// doCtxSplit realizes the temporal-partitioning move. With ci == -1 it
// seeds RC r's first context with task h; otherwise it moves the h
// topologically latest tasks of context ci into a fresh context inserted
// immediately after it. Splitting along the topological order guarantees
// the precedence relation never points from the new (later) context back
// into the old one, so the split itself cannot create a cycle.
func (e *Explorer) doCtxSplit(r, ci, h int) bool {
	if ci == -1 {
		e.detach(h)
		return e.attachCtx(h, r, -1)
	}
	if ci >= len(e.cur.Contexts[r]) {
		return false
	}
	if h <= 0 || h >= len(e.cur.Contexts[r][ci].Tasks) {
		return false
	}
	// The split first sorts the context in place, so snapshot the original
	// member order for the undo path.
	e.journal.snapshotTasks(r, ci, e.cur.Contexts[r][ci].Tasks)
	e.cs.AddRC(r)
	sortByTopo(e.cur.Contexts[r][ci].Tasks, e.topoPos)
	e.insertContext(r, ci+1)
	src := &e.cur.Contexts[r][ci]
	dst := &e.cur.Contexts[r][ci+1]
	moved := src.Tasks[len(src.Tasks)-h:]
	dst.Tasks = append(dst.Tasks, moved...)
	src.Tasks = src.Tasks[:len(src.Tasks)-h]
	for _, t := range dst.Tasks {
		e.logAssign(t)
		e.cur.Assign[t] = sched.Placement{Kind: model.KindRC, Res: r, Ctx: ci + 1}
	}
	return true
}

// sortByTopo orders tasks by ascending topological rank (insertion sort —
// contexts hold a handful of tasks).
func sortByTopo(tasks []int, pos []int) {
	for i := 1; i < len(tasks); i++ {
		t := tasks[i]
		j := i - 1
		for j >= 0 && pos[tasks[j]] > pos[t] {
			tasks[j+1] = tasks[j]
			j--
		}
		tasks[j+1] = t
	}
}

// detach removes task t from its resource containers; an emptied context is
// deleted from its RC's context list. Assign[t] is left stale — every
// caller re-places the task immediately.
//
// The pre-move placement and implementation are journaled here, FIRST: the
// corresponding undo then runs last during rollback, after every context
// renumbering has been inverted, so it restores the exact original values
// regardless of how the container undos shuffled indices in between.
func (e *Explorer) detach(t int) {
	e.logAssign(t)
	e.logImpl(t)
	pl := e.cur.Assign[t]
	switch pl.Kind {
	case model.KindProcessor:
		e.swRemove(pl.Res, t)
	case model.KindRC:
		e.ctxRemoveTask(pl.Res, pl.Ctx, t)
		if len(e.cur.Contexts[pl.Res][pl.Ctx].Tasks) == 0 {
			e.deleteContext(pl.Res, pl.Ctx)
		}
	case model.KindASIC:
		// ASICs keep no container.
	}
}

// deleteContext removes context ci of RC r, renumbering the back-references
// of the tasks in later contexts.
func (e *Explorer) deleteContext(r, ci int) {
	e.journal.log(opCtxDelete, int32(r), int32(ci), 0, 0)
	e.cs.AddRC(r)
	ctxs := e.cur.Contexts[r]
	copy(ctxs[ci:], ctxs[ci+1:])
	// Zero the vacated tail slot: its stale Tasks header would otherwise
	// alias the backing array of the (shifted) last context, corrupting a
	// later in-place copy that re-extends the slice.
	ctxs[len(ctxs)-1] = sched.Context{}
	e.cur.Contexts[r] = ctxs[:len(ctxs)-1]
	for t := range e.cur.Assign {
		pl := &e.cur.Assign[t]
		if pl.Kind == model.KindRC && pl.Res == r && pl.Ctx > ci {
			pl.Ctx--
		}
	}
}

// insertContext inserts an empty context at position at of RC r,
// renumbering the back-references of the tasks at or after that position.
func (e *Explorer) insertContext(r, at int) {
	e.journal.log(opCtxInsert, int32(r), int32(at), 0, 0)
	e.cs.AddRC(r)
	ctxs := append(e.cur.Contexts[r], sched.Context{})
	copy(ctxs[at+1:], ctxs[at:])
	ctxs[at] = sched.Context{}
	e.cur.Contexts[r] = ctxs
	for t := range e.cur.Assign {
		pl := &e.cur.Assign[t]
		if pl.Kind == model.KindRC && pl.Res == r && pl.Ctx >= at {
			pl.Ctx++
		}
	}
}

// attachSWBefore inserts t into processor p's order immediately before
// task before (append when before is absent or -1).
func (e *Explorer) attachSWBefore(t, p, before int) {
	order := e.cur.SWOrders[p]
	pos := len(order)
	if before >= 0 {
		if i := indexOf(order, before); i >= 0 {
			pos = i
		}
	}
	e.swInsert(p, pos, t)
	e.cs.AddTask(t)
	e.cur.Assign[t] = sched.Placement{Kind: model.KindProcessor, Res: p}
}

// attachCtx places t into context ci of RC r (ci == -1 appends a fresh
// context at the end of Lc). When the destination context cannot fit the
// task, "another context is spawned" immediately after it (Section 4.3).
func (e *Explorer) attachCtx(t, r, ci int) bool {
	task := &e.app.Tasks[t]
	rc := &e.arch.RCs[r]
	impl := e.cur.Impl[t]
	if impl < 0 || impl >= len(task.HW) || task.HW[impl].CLBs > rc.NCLB {
		impl = smallestImpl(task)
	}
	need := task.HW[impl].CLBs
	if need > rc.NCLB {
		return false
	}
	if ci == -1 {
		ci = len(e.cur.Contexts[r])
		e.insertContext(r, ci)
	} else if e.cur.ContextCLBs(e.app, r, ci)+need > rc.NCLB {
		e.insertContext(r, ci+1)
		ci++
	}
	e.ctxAppendTask(r, ci, t)
	e.cs.AddTask(t)
	e.cur.Assign[t] = sched.Placement{Kind: model.KindRC, Res: r, Ctx: ci}
	e.cur.Impl[t] = impl
	return true
}

// attachASIC places t onto ASIC res with its fastest implementation (a
// dedicated circuit is synthesized for speed; area is not a constraint in
// the ASIC model).
func (e *Explorer) attachASIC(t, res int) bool {
	task := &e.app.Tasks[t]
	if !task.CanHW() {
		return false
	}
	e.cs.AddTask(t)
	e.cur.Assign[t] = sched.Placement{Kind: model.KindASIC, Res: res}
	e.cur.Impl[t] = fastestImpl(task)
	return true
}

// ---------- small utilities ----------

func smallestImpl(task *model.Task) int {
	best := 0
	for i, im := range task.HW {
		if im.CLBs < task.HW[best].CLBs {
			best = i
		}
	}
	return best
}

func fastestImpl(task *model.Task) int {
	best := 0
	for i, im := range task.HW {
		if im.Time < task.HW[best].Time {
			best = i
		}
	}
	return best
}

func indexOf(xs []int, v int) int {
	for i, x := range xs {
		if x == v {
			return i
		}
	}
	return -1
}

func insertAt(xs *[]int, pos, v int) {
	*xs = append(*xs, 0)
	copy((*xs)[pos+1:], (*xs)[pos:])
	(*xs)[pos] = v
}
