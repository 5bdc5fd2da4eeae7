package core

import (
	"repro/internal/model"
	"repro/internal/sched"
)

// The move journal: every mapping mutation primitive records a compact
// inverse operation, so rejecting a move replays O(delta) undo records
// instead of restoring a full-mapping snapshot (the old CopyInto spare).
// Ops are applied strictly in reverse record order, which restores the
// mapping bit-for-bit — including task order inside software orders and
// contexts, so that a replayed run proposes the exact same move sequence
// whichever evaluation path is active.

type opKind int8

const (
	// opAssign: restore Assign[a] to Placement{Kind b, Res c, Ctx d}.
	opAssign opKind = iota
	// opImpl: restore Impl[a] to b.
	opImpl
	// opSWInsert: an element was inserted at index b of processor a's
	// order; remove it.
	opSWInsert
	// opSWRemove: task c was removed from index b of processor a's order;
	// re-insert it.
	opSWRemove
	// opCtxAppend: a task was appended to context b of RC a; pop it.
	opCtxAppend
	// opCtxRemove: task c was removed from index d of context b of RC a;
	// re-insert it.
	opCtxRemove
	// opCtxInsert: an (empty) context was inserted at position b of RC a;
	// delete it and renumber the later back-references down.
	opCtxInsert
	// opCtxDelete: an emptied context was deleted from position b of RC a;
	// re-insert an empty context and renumber the later back-references up.
	opCtxDelete
	// opCtxSwap: contexts b and b+1 of RC a were exchanged; exchange them
	// back (self-inverse, including the Ctx back-references).
	opCtxSwap
	// opCtxTasks: restore the task list of context b of RC a to the arena
	// snapshot arena[c:d] (records in-place reorderings such as the
	// topological sort performed by the context-split move).
	opCtxTasks
)

type undoOp struct {
	kind       opKind
	a, b, c, d int32
}

// journal accumulates the undo records of the move in flight.
type journal struct {
	ops   []undoOp
	arena []int32 // backing storage for opCtxTasks snapshots
	area  int     // the running hardware area before the move
}

func (j *journal) reset() {
	j.ops = j.ops[:0]
	j.arena = j.arena[:0]
}

func (j *journal) log(kind opKind, a, b, c, d int32) {
	j.ops = append(j.ops, undoOp{kind: kind, a: a, b: b, c: c, d: d})
}

// snapshotTasks records a full copy of a context's task list.
func (j *journal) snapshotTasks(r, ci int, tasks []int) {
	from := int32(len(j.arena))
	for _, t := range tasks {
		j.arena = append(j.arena, int32(t))
	}
	j.log(opCtxTasks, int32(r), int32(ci), from, int32(len(j.arena)))
}

// rollback undoes every journaled mutation of the current move, leaving
// e.cur and the running area exactly as they were before the move
// started, and clears the journal.
func (e *Explorer) rollback() {
	m := e.cur
	j := &e.journal
	e.area, e.areaPend = j.area, e.areaPend[:0]
	for i := len(j.ops) - 1; i >= 0; i-- {
		op := j.ops[i]
		switch op.kind {
		case opAssign:
			m.Assign[op.a] = sched.Placement{Kind: model.ResourceKind(op.b), Res: int(op.c), Ctx: int(op.d)}
		case opImpl:
			m.Impl[op.a] = int(op.b)
		case opSWInsert:
			order := &m.SWOrders[op.a]
			*order = append((*order)[:op.b], (*order)[op.b+1:]...)
		case opSWRemove:
			insertAt(&m.SWOrders[op.a], int(op.b), int(op.c))
		case opCtxAppend:
			ts := &m.Contexts[op.a][op.b].Tasks
			*ts = (*ts)[:len(*ts)-1]
		case opCtxRemove:
			insertAt(&m.Contexts[op.a][op.b].Tasks, int(op.d), int(op.c))
		case opCtxInsert:
			r, at := int(op.a), int(op.b)
			ctxs := m.Contexts[r]
			copy(ctxs[at:], ctxs[at+1:])
			ctxs[len(ctxs)-1] = sched.Context{}
			m.Contexts[r] = ctxs[:len(ctxs)-1]
			for t := range m.Assign {
				pl := &m.Assign[t]
				if pl.Kind == model.KindRC && pl.Res == r && pl.Ctx > at {
					pl.Ctx--
				}
			}
		case opCtxDelete:
			r, at := int(op.a), int(op.b)
			ctxs := append(m.Contexts[r], sched.Context{})
			copy(ctxs[at+1:], ctxs[at:])
			ctxs[at] = sched.Context{}
			m.Contexts[r] = ctxs
			for t := range m.Assign {
				pl := &m.Assign[t]
				if pl.Kind == model.KindRC && pl.Res == r && pl.Ctx >= at {
					pl.Ctx++
				}
			}
		case opCtxSwap:
			r, i2 := int(op.a), int(op.b)
			ctxs := m.Contexts[r]
			ctxs[i2], ctxs[i2+1] = ctxs[i2+1], ctxs[i2]
			for _, t := range ctxs[i2].Tasks {
				m.Assign[t].Ctx = i2
			}
			for _, t := range ctxs[i2+1].Tasks {
				m.Assign[t].Ctx = i2 + 1
			}
		case opCtxTasks:
			ts := &m.Contexts[op.a][op.b].Tasks
			*ts = (*ts)[:0]
			for _, t := range j.arena[op.c:op.d] {
				*ts = append(*ts, int(t))
			}
		}
	}
	j.reset()
}

// ---------- journaled mutation helpers ----------

// logAssign records the current placement of task t before it changes.
func (e *Explorer) logAssign(t int) {
	pl := e.cur.Assign[t]
	e.journal.log(opAssign, int32(t), int32(pl.Kind), int32(pl.Res), int32(pl.Ctx))
	e.cs.AddTask(t)
	e.pendArea(t)
}

// logImpl records the current implementation of task t before it changes.
func (e *Explorer) logImpl(t int) {
	e.journal.log(opImpl, int32(t), int32(e.cur.Impl[t]), 0, 0)
	e.cs.AddTask(t)
	e.pendArea(t)
}

// pendArea takes task t's contribution out of the running area until
// settleArea puts its new one back; a task already pending stays as is.
func (e *Explorer) pendArea(t int) {
	for _, p := range e.areaPend {
		if int(p) == t {
			return
		}
	}
	e.area -= e.areaOf(t)
	e.areaPend = append(e.areaPend, int32(t))
}

// settleArea adds the contributions of the pending tasks, now placed,
// back into the running area.
func (e *Explorer) settleArea() {
	for _, t := range e.areaPend {
		e.area += e.areaOf(int(t))
	}
	e.areaPend = e.areaPend[:0]
}

// areaOf is task t's contribution to objective.HWAreaOf.
func (e *Explorer) areaOf(t int) int {
	if pl := e.cur.Assign[t]; pl.Kind == model.KindRC || pl.Kind == model.KindASIC {
		return e.app.Tasks[t].HW[e.cur.Impl[t]].CLBs
	}
	return 0
}

// swRemove takes task t out of processor p's order.
func (e *Explorer) swRemove(p, t int) bool {
	order := &e.cur.SWOrders[p]
	i := indexOf(*order, t)
	if i < 0 {
		return false
	}
	*order = append((*order)[:i], (*order)[i+1:]...)
	e.journal.log(opSWRemove, int32(p), int32(i), int32(t), 0)
	e.cs.AddProc(p)
	return true
}

// swInsert puts task t into processor p's order at position pos.
func (e *Explorer) swInsert(p, pos, t int) {
	insertAt(&e.cur.SWOrders[p], pos, t)
	e.journal.log(opSWInsert, int32(p), int32(pos), 0, 0)
	e.cs.AddProc(p)
}

// ctxRemoveTask takes task t out of context ci of RC r.
func (e *Explorer) ctxRemoveTask(r, ci, t int) bool {
	ts := &e.cur.Contexts[r][ci].Tasks
	i := indexOf(*ts, t)
	if i < 0 {
		return false
	}
	*ts = append((*ts)[:i], (*ts)[i+1:]...)
	e.journal.log(opCtxRemove, int32(r), int32(ci), int32(t), int32(i))
	e.cs.AddRC(r)
	return true
}

// ctxAppendTask appends task t to context ci of RC r.
func (e *Explorer) ctxAppendTask(r, ci, t int) {
	ctx := &e.cur.Contexts[r][ci]
	ctx.Tasks = append(ctx.Tasks, t)
	e.journal.log(opCtxAppend, int32(r), int32(ci), 0, 0)
	e.cs.AddRC(r)
}
