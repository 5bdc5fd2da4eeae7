package objective

import (
	"fmt"
	"slices"

	"repro/internal/model"
	"repro/internal/sched"
)

// Metric names one scalar coordinate of the objective space. The order is
// load-bearing twice over: it fixes the coordinate layout of Vector, and it
// fixes the summation order of Scalarizer.Cost — reorder it and previously
// bit-identical costs may drift by an ulp.
type Metric int

const (
	// Makespan is the system execution time in milliseconds — the cost the
	// paper optimizes in fixed-architecture mode.
	Makespan Metric = iota
	// Contexts is the number of non-empty reconfiguration contexts.
	Contexts
	// HWArea is the total CLB count of the chosen implementations of every
	// task mapped to hardware (RC or ASIC).
	HWArea
	// UsedResourceCost sums the costs of resources executing at least one
	// task — the architecture-exploration cost of moves m3/m4.
	UsedResourceCost
	// InitialReconfig is the initial reconfiguration time in milliseconds.
	InitialReconfig
	// DynamicReconfig is the run-time reconfiguration time in milliseconds.
	DynamicReconfig
	// BusComm is the total bus transfer time in milliseconds.
	BusComm
	// NumMetrics is the dimension of the objective space.
	NumMetrics
)

var metricNames = [NumMetrics]string{
	Makespan:         "makespan",
	Contexts:         "contexts",
	HWArea:           "area",
	UsedResourceCost: "rescost",
	InitialReconfig:  "init-reconf",
	DynamicReconfig:  "dyn-reconf",
	BusComm:          "comm",
}

// String implements fmt.Stringer.
func (m Metric) String() string {
	if m < 0 || m >= NumMetrics {
		return fmt.Sprintf("Metric(%d)", int(m))
	}
	return metricNames[m]
}

// ParseMetric resolves a metric name as printed by String.
func ParseMetric(s string) (Metric, error) {
	for m, name := range metricNames {
		if s == name {
			return Metric(m), nil
		}
	}
	return 0, fmt.Errorf("objective: unknown metric %q", s)
}

// Vector is one point of the objective space, indexed by Metric. All
// coordinates are minimized.
type Vector [NumMetrics]float64

// Weights holds one scalarization weight per metric.
type Weights [NumMetrics]float64

// FromResult extracts the schedule-derived coordinates of an evaluation.
// The mapping-derived coordinates (HWArea, UsedResourceCost) stay zero; use
// CompleteMapping — or Eval for both at once — when a scalarizer or archive
// needs them.
func FromResult(res sched.Result) Vector {
	var v Vector
	v[Makespan] = res.Makespan.Millis()
	v[Contexts] = float64(res.Contexts)
	v[InitialReconfig] = res.InitialReconfig.Millis()
	v[DynamicReconfig] = res.DynamicReconfig.Millis()
	v[BusComm] = res.Comm.Millis()
	return v
}

// CompleteMapping fills in the mapping-derived coordinates.
func CompleteMapping(app *model.App, arch *model.Arch, m *sched.Mapping, v *Vector) {
	CompleteMappingArea(arch, m, HWAreaOf(app, m), v)
}

// CompleteMappingArea is CompleteMapping for a caller that keeps the
// mapping's area — HWAreaOf's value — current itself.
func CompleteMappingArea(arch *model.Arch, m *sched.Mapping, area int, v *Vector) {
	v[HWArea] = float64(area)
	v[UsedResourceCost] = UsedResourceCostOf(arch, m)
}

// Project extracts only the named coordinates of a solution into out
// (len(out) == len(metrics)) — the cheap path for per-move archiving:
// mapping-derived coordinates are computed only when actually requested.
func Project(metrics []Metric, app *model.App, arch *model.Arch, m *sched.Mapping, res sched.Result, out []float64) {
	area := 0
	if slices.Contains(metrics, HWArea) {
		area = HWAreaOf(app, m)
	}
	ProjectArea(metrics, arch, m, res, area, out)
}

// ProjectArea is Project for a caller that keeps the mapping's area —
// HWAreaOf's value — current itself.
func ProjectArea(metrics []Metric, arch *model.Arch, m *sched.Mapping, res sched.Result, area int, out []float64) {
	for i, mt := range metrics {
		switch mt {
		case Makespan:
			out[i] = res.Makespan.Millis()
		case Contexts:
			out[i] = float64(res.Contexts)
		case HWArea:
			out[i] = float64(area)
		case UsedResourceCost:
			out[i] = UsedResourceCostOf(arch, m)
		case InitialReconfig:
			out[i] = res.InitialReconfig.Millis()
		case DynamicReconfig:
			out[i] = res.DynamicReconfig.Millis()
		case BusComm:
			out[i] = res.Comm.Millis()
		}
	}
}

// Eval extracts the full objective vector of a solution.
func Eval(app *model.App, arch *model.Arch, m *sched.Mapping, res sched.Result) Vector {
	v := FromResult(res)
	CompleteMapping(app, arch, m, &v)
	return v
}

// HWAreaOf sums the CLB counts of the chosen implementations of every task
// mapped to hardware (RC or ASIC) — the area coordinate of the Pareto
// archives.
func HWAreaOf(app *model.App, m *sched.Mapping) int {
	area := 0
	for t, pl := range m.Assign {
		if pl.Kind == model.KindRC || pl.Kind == model.KindASIC {
			area += app.Tasks[t].HW[m.Impl[t]].CLBs
		}
	}
	return area
}

// UsedResourceCostOf sums the costs of resources that currently execute at
// least one task. Unused template resources are "not part" of the explored
// architecture — this realizes moves m3/m4 over a fixed maximal template.
// The summation order (processors, RCs, ASICs) is part of the bit-identity
// contract with the historical core cost.
func UsedResourceCostOf(arch *model.Arch, m *sched.Mapping) float64 {
	var c float64
	for p := range arch.Processors {
		if len(m.SWOrders[p]) > 0 {
			c += arch.Processors[p].Cost
		}
	}
	for r := range arch.RCs {
		if m.NumContexts(r) > 0 {
			c += arch.RCs[r].Cost
		}
	}
	for x := range arch.ASICs {
		for _, pl := range m.Assign {
			if pl.Kind == model.KindASIC && pl.Res == x {
				c += arch.ASICs[x].Cost
				break
			}
		}
	}
	return c
}

// CtxTieBreak is the microscopic per-context cost (one microsecond in
// millisecond units) that breaks ties among equal-makespan solutions toward
// fewer contexts, so zero-delta splitting moves do not let the context
// count drift upward for free.
const CtxTieBreak = 1e-3

// Scalarizer folds an objective vector into the single scalar the search
// strategies compare: a weighted sum of the metrics plus constraint
// penalties. The zero value is useless; start from FixedArch or
// ArchExplore and adjust weights.
type Scalarizer struct {
	// Weights are the per-metric scalarization weights. Zero-weight metrics
	// contribute nothing (they are skipped, not multiplied).
	Weights Weights
	// Deadline, when positive, is the real-time constraint on the makespan;
	// exceeding it costs DeadlinePenalty per millisecond of violation. The
	// violation is computed in the exact Time domain, which is why Cost
	// takes the evaluation alongside the vector.
	Deadline model.Time
	// DeadlinePenalty converts deadline violation (ms) into cost units.
	DeadlinePenalty float64
	// AreaBudget, when positive, is a CLB budget on the HWArea metric;
	// exceeding it costs AreaPenalty per CLB over budget.
	AreaBudget int
	// AreaPenalty converts area-budget violation (CLBs) into cost units.
	AreaPenalty float64
}

// FixedArch reproduces the paper's fixed-architecture cost bit-for-bit:
// execution time in milliseconds plus the context tie-break. A configured
// deadline is deliberately absent — in fixed-architecture mode the paper
// optimizes pure execution time and the deadline is only reported.
func FixedArch() Scalarizer {
	var w Weights
	w[Makespan] = 1
	w[Contexts] = CtxTieBreak
	return Scalarizer{Weights: w}
}

// ArchExplore reproduces the paper's architecture-exploration cost
// bit-for-bit: instantiated-resource cost plus a deadline-violation
// penalty.
func ArchExplore(deadline model.Time, penaltyWeight float64) Scalarizer {
	var w Weights
	w[UsedResourceCost] = 1
	return Scalarizer{Weights: w, Deadline: deadline, DeadlinePenalty: penaltyWeight}
}

// NeedsMapping reports whether Cost reads any mapping-derived coordinate,
// letting hot loops skip CompleteMapping when only schedule-derived metrics
// are scalarized.
func (s *Scalarizer) NeedsMapping() bool {
	return s.Weights[HWArea] != 0 || s.Weights[UsedResourceCost] != 0 || s.AreaBudget > 0
}

// Cost folds a solution into the scalar search cost. res must be the
// evaluation v was extracted from (the deadline penalty is computed in the
// exact integer Time domain to keep annealing acceptance reproducible
// bit-for-bit).
func (s *Scalarizer) Cost(res sched.Result, v Vector) float64 {
	var acc float64
	for m := Metric(0); m < NumMetrics; m++ {
		if w := s.Weights[m]; w != 0 {
			acc += w * v[m]
		}
	}
	if s.Deadline > 0 && res.Makespan > s.Deadline {
		acc += s.DeadlinePenalty * (res.Makespan - s.Deadline).Millis()
	}
	if s.AreaBudget > 0 && v[HWArea] > float64(s.AreaBudget) {
		acc += s.AreaPenalty * (v[HWArea] - float64(s.AreaBudget))
	}
	return acc
}

// CostOf is the one-call scoring convenience for cold paths: extract
// whatever coordinates the scalarizer reads and fold them.
func (s *Scalarizer) CostOf(app *model.App, arch *model.Arch, m *sched.Mapping, res sched.Result) float64 {
	v := FromResult(res)
	if s.NeedsMapping() {
		CompleteMapping(app, arch, m, &v)
	}
	return s.Cost(res, v)
}
