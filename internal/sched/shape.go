package sched

import (
	"repro/internal/model"
)

// shape is the state shared by the two evaluation paths (the full-rebuild
// Evaluator and the delta-based IncEvaluator): the fixed search-graph node
// layout, the static precedence adjacency, and the scratch buffers used to
// derive the initial/terminal task lists of reconfiguration contexts.
//
// The node layout is fixed per (application, architecture) pair: tasks
// occupy nodes [0,N) and each RC gets a "boot" node in [N, N+R) carrying
// the initial configuration time of its first context; these are the
// graph nodes that both evaluators' graphs hold. Each data flow is a static
// edge between its tasks weighted with its bus transfer time when it
// crosses resources (zero otherwise). Only the contention pass needs a flow
// as a node of its own, the communication node FlowNode(k) in
// [N+R, N+R+F); outside it a flow node is a pass-through from producer to
// consumer.
type shape struct {
	app  *model.App
	arch *model.Arch

	nTasks, nFlows, nBoot, v int
	nG                       int       // graph nodes: tasks and boot nodes
	predTasks                [][]int32 // static precedence adjacency between tasks
	succTasks                [][]int32
	flowsOf                  [][]int32 // flow indices incident to each task

	// Precomputed time tables: the evaluator consults these thousands of
	// times per move, and both Bus.TransferTime and Processor.Scale divide.
	busTime []int64   // per-flow bus transfer time (when crossing resources)
	swTime  [][]int64 // [processor][task] scaled software execution time
	// Flattened implementation tables: hwTime/hwCLB of task t's point j sit
	// at implOff[t]+j, replacing the Tasks[t].HW[j] double indirection.
	implOff []int32
	hwTime  []int64
	hwCLB   []int32

	stamp    []int32 // context-membership marking (epoch-based)
	curStamp int32

	nonEmpty   []int32 // scratch: indices of non-empty contexts of one RC
	termBuf    []int32 // scratch: terminal nodes of the previous context
	termBuf2   []int32 // scratch: terminal nodes of the current context
	initialBuf []int32 // scratch: initial nodes of the next context
}

func newShape(app *model.App, arch *model.Arch) shape {
	n := app.N()
	f := len(app.Flows)
	r := len(arch.RCs)
	s := shape{
		app:    app,
		arch:   arch,
		nTasks: n, nFlows: f, nBoot: r, v: n + r + f, nG: n + r,
		predTasks: make([][]int32, n),
		succTasks: make([][]int32, n),
		flowsOf:   make([][]int32, n),
		stamp:     make([]int32, n),
	}
	for k, fl := range app.Flows {
		s.succTasks[fl.From] = append(s.succTasks[fl.From], int32(fl.To))
		s.predTasks[fl.To] = append(s.predTasks[fl.To], int32(fl.From))
		s.flowsOf[fl.From] = append(s.flowsOf[fl.From], int32(k))
		s.flowsOf[fl.To] = append(s.flowsOf[fl.To], int32(k))
	}
	s.busTime = make([]int64, f)
	for k, fl := range app.Flows {
		s.busTime[k] = int64(arch.Bus.TransferTime(fl.Qty))
	}
	s.swTime = make([][]int64, len(arch.Processors))
	for p := range arch.Processors {
		s.swTime[p] = make([]int64, n)
		for t := 0; t < n; t++ {
			s.swTime[p][t] = int64(arch.Processors[p].Scale(app.Tasks[t].SW))
		}
	}
	s.implOff = make([]int32, n)
	for t := 0; t < n; t++ {
		s.implOff[t] = int32(len(s.hwTime))
		for _, im := range app.Tasks[t].HW {
			s.hwTime = append(s.hwTime, int64(im.Time))
			s.hwCLB = append(s.hwCLB, int32(im.CLBs))
		}
	}
	return s
}

// TaskNode, FlowNode and BootNode map model entities to search-graph nodes.
func (s *shape) TaskNode(t int) int { return t }

// FlowNode returns the communication node of flow k.
func (s *shape) FlowNode(k int) int { return s.nG + k }

// BootNode returns the initial-configuration node of RC r.
func (s *shape) BootNode(r int) int { return s.nTasks + r }

// NumNodes returns the search-graph node count.
func (s *shape) NumNodes() int { return s.v }

// taskDur computes the execution time of task t under mapping m.
func (s *shape) taskDur(m *Mapping, t int) int64 {
	p := m.Assign[t]
	if p.Kind == model.KindProcessor {
		return s.swTime[p.Res][t]
	}
	return s.hwTime[int(s.implOff[t])+m.Impl[t]] // RC or ASIC
}

// flowDur computes the communication time of flow k under mapping m: the
// bus transfer time when the flow crosses resources, zero otherwise.
func (s *shape) flowDur(m *Mapping, k int) int64 {
	fl := &s.app.Flows[k]
	pu, pv := m.Assign[fl.From], m.Assign[fl.To]
	if pu.Kind != pv.Kind || pu.Res != pv.Res {
		return s.busTime[k]
	}
	return 0
}

// markCtx stamps the members of context ci of RC r with a fresh epoch and
// returns the stamp.
func (s *shape) markCtx(m *Mapping, r, ci int) int32 {
	s.curStamp++
	for _, t := range m.Contexts[r][ci].Tasks {
		s.stamp[t] = s.curStamp
	}
	return s.curStamp
}

// collectBoth computes the initial and terminal task lists of context ci
// of RC r in a single stamped pass, appending to init and term and
// returning the two extended slices: the tasks whose immediate
// predecessors (resp. successors) are all outside the context — the lists
// I and T of the paper's Context objects.
func (s *shape) collectBoth(m *Mapping, r, ci int, init, term []int32) ([]int32, []int32) {
	st := s.markCtx(m, r, ci)
	for _, t := range m.Contexts[r][ci].Tasks {
		inner := false
		for _, p := range s.predTasks[t] {
			if s.stamp[p] == st {
				inner = true
				break
			}
		}
		if !inner {
			init = append(init, int32(t))
		}
		inner = false
		for _, sc := range s.succTasks[t] {
			if s.stamp[sc] == st {
				inner = true
				break
			}
		}
		if !inner {
			term = append(term, int32(t))
		}
	}
	return init, term
}
