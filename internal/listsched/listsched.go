package listsched

import (
	"fmt"
	"sort"

	"repro/internal/model"
	"repro/internal/sched"
)

// Ranks computes the upward rank of every task: the longest path (in
// software execution time) from the task to any sink, inclusive. Upward
// rank is the classical list-scheduling priority — scheduling in decreasing
// rank order is always precedence-compatible.
func Ranks(app *model.App) []model.Time {
	n := app.N()
	g := app.Precedence()
	order, err := topo(app)
	if err != nil {
		// Validated applications are acyclic; an invalid one gets zero
		// ranks and fails later with a clear evaluation error.
		return make([]model.Time, n)
	}
	rank := make([]model.Time, n)
	for i := n - 1; i >= 0; i-- {
		v := order[i]
		var best model.Time
		for _, s := range g.Succs(v) {
			if rank[s] > best {
				best = rank[s]
			}
		}
		sw := app.Tasks[v].SW
		if sw <= 0 {
			sw = app.Tasks[v].BestHWTime()
		}
		rank[v] = best + sw
	}
	return rank
}

// Decoder turns spatial assignments of one (application, architecture)
// pair into complete mappings:
//
//   - hw[t] requests hardware for task t (forced to software when the task
//     has no implementation that fits the device, and to hardware when it
//     has no software time);
//   - impl[t] selects the implementation (clamped to the valid range; pass
//     nil for smallest-area defaults);
//   - software tasks are ordered by decreasing upward rank;
//   - hardware tasks are packed into contexts in decreasing-rank order,
//     opening a new context whenever the capacity would overflow (the
//     greedy temporal clustering of [6]).
//
// The rank order depends only on the application, so it is computed once:
// Build then allocates only the mapping it returns, and BuildInto nothing
// once the destination has grown to size.
type Decoder struct {
	app    *model.App
	arch   *model.Arch
	byRank []int // task ids by decreasing upward rank, ids ascending among equals
}

// NewDecoder ranks the application once for every later decode.
func NewDecoder(app *model.App, arch *model.Arch) *Decoder {
	rank := Ranks(app)
	byRank := make([]int, app.N())
	for i := range byRank {
		byRank[i] = i
	}
	sort.Slice(byRank, func(a, b int) bool {
		ra, rb := rank[byRank[a]], rank[byRank[b]]
		if ra != rb {
			return ra > rb
		}
		return byRank[a] < byRank[b]
	})
	return &Decoder{app: app, arch: arch, byRank: byRank}
}

// Build decodes an assignment into a new mapping.
func (d *Decoder) Build(hw []bool, impl []int) (*sched.Mapping, error) {
	m := &sched.Mapping{}
	if err := d.BuildInto(m, hw, impl); err != nil {
		return nil, err
	}
	return m, nil
}

// BuildInto decodes an assignment into m, overwriting its contents and
// reusing its storage. On error m holds a partial decode.
func (d *Decoder) BuildInto(m *sched.Mapping, hw []bool, impl []int) error {
	app, arch := d.app, d.arch
	if len(arch.Processors) == 0 {
		return fmt.Errorf("listsched: architecture has no processor")
	}
	n := app.N()
	if len(hw) != n {
		return fmt.Errorf("listsched: assignment sized %d for %d tasks", len(hw), n)
	}
	m.Assign = resize(m.Assign, n)
	m.Impl = resize(m.Impl, n)
	clear(m.Impl)
	m.SWOrders = resize(m.SWOrders, len(arch.Processors))
	for p := range m.SWOrders {
		m.SWOrders[p] = m.SWOrders[p][:0]
	}
	m.Contexts = resize(m.Contexts, len(arch.RCs))
	for r := range m.Contexts {
		m.Contexts[r] = m.Contexts[r][:0]
	}

	for _, t := range d.byRank {
		task := &app.Tasks[t]
		wantHW := hw[t]
		if !task.CanHW() {
			wantHW = false
		}
		if !task.CanSW() {
			wantHW = true
		}
		if wantHW && len(arch.RCs) == 0 {
			if !task.CanSW() {
				return fmt.Errorf("listsched: task %d is hardware-only but there is no RC", t)
			}
			wantHW = false
		}
		if wantHW {
			rc := &arch.RCs[0]
			im := clampImpl(task, impl, t)
			if task.HW[im].CLBs > rc.NCLB {
				im = smallest(task)
			}
			if task.HW[im].CLBs > rc.NCLB {
				// Does not fit the device at all: fall back to software.
				if !task.CanSW() {
					return fmt.Errorf("listsched: task %d fits neither side", t)
				}
				wantHW = false
			} else {
				cs := m.Contexts[0]
				if len(cs) == 0 || m.ContextCLBs(app, 0, len(cs)-1)+task.HW[im].CLBs > rc.NCLB {
					m.Contexts[0] = openContext(cs)
				}
				ci := len(m.Contexts[0]) - 1
				m.Contexts[0][ci].Tasks = append(m.Contexts[0][ci].Tasks, t)
				m.Assign[t] = sched.Placement{Kind: model.KindRC, Res: 0, Ctx: ci}
				m.Impl[t] = im
			}
		}
		if !wantHW {
			m.Assign[t] = sched.Placement{Kind: model.KindProcessor, Res: 0}
			m.SWOrders[0] = append(m.SWOrders[0], t)
		}
	}
	return nil
}

// resize returns s with length n, reusing its array when large enough.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// openContext appends an empty context to cs, reusing the task slice a
// previous decode left in that slot.
func openContext(cs []sched.Context) []sched.Context {
	if len(cs) < cap(cs) {
		cs = cs[:len(cs)+1]
		cs[len(cs)-1].Tasks = cs[len(cs)-1].Tasks[:0]
		return cs
	}
	return append(cs, sched.Context{})
}

func clampImpl(task *model.Task, impl []int, t int) int {
	if impl == nil {
		return smallest(task)
	}
	im := impl[t]
	if im < 0 || im >= len(task.HW) {
		return smallest(task)
	}
	return im
}

func smallest(task *model.Task) int {
	best := 0
	for i, im := range task.HW {
		if im.CLBs < task.HW[best].CLBs {
			best = i
		}
	}
	return best
}

// topo returns a deterministic topological order of the application.
func topo(app *model.App) ([]int, error) {
	g := app.Precedence()
	indeg := make([]int, app.N())
	for v := 0; v < app.N(); v++ {
		indeg[v] = g.InDegree(v)
	}
	var ready []int
	for v := app.N() - 1; v >= 0; v-- {
		if indeg[v] == 0 {
			ready = append(ready, v)
		}
	}
	var order []int
	for len(ready) > 0 {
		v := ready[len(ready)-1]
		ready = ready[:len(ready)-1]
		order = append(order, v)
		for _, s := range g.Succs(v) {
			indeg[s]--
			if indeg[s] == 0 {
				i := len(ready)
				ready = append(ready, 0)
				for i > 0 && ready[i-1] < s {
					ready[i] = ready[i-1]
					i--
				}
				ready[i] = s
			}
		}
	}
	if len(order) != app.N() {
		return nil, fmt.Errorf("listsched: cyclic application")
	}
	return order, nil
}
