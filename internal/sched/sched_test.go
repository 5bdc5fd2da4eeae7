package sched

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/model"
)

// ms is a test shorthand.
func ms(x float64) model.Time { return model.FromMillis(x) }

// chainApp: A -> B with one flow of 1 MB; both tasks run on either side.
func chainApp() *model.App {
	return &model.App{
		Name: "chain",
		Tasks: []model.Task{
			{Name: "A", SW: ms(10), HW: []model.Impl{{CLBs: 100, Time: ms(1)}}},
			{Name: "B", SW: ms(20), HW: []model.Impl{{CLBs: 200, Time: ms(2)}}},
		},
		Flows: []model.Flow{{From: 0, To: 1, Qty: 1_000_000}},
	}
}

// refArch: one processor, one RC with 1000 CLBs and 10 µs/CLB, 100 MB/s bus
// (1 MB transfers in 10 ms).
func refArch() *model.Arch {
	return &model.Arch{
		Name:       "ref",
		Processors: []model.Processor{{Name: "cpu"}},
		RCs:        []model.RC{{Name: "fpga", NCLB: 1000, TR: model.FromMicros(10)}},
		Bus:        model.Bus{Rate: 100_000_000},
	}
}

func mustEval(t *testing.T, app *model.App, arch *model.Arch, m *Mapping) Result {
	t.Helper()
	if err := CheckMapping(app, arch, m); err != nil {
		t.Fatalf("CheckMapping: %v", err)
	}
	e := NewEvaluator(app, arch)
	res, err := e.Evaluate(m)
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	return res
}

func TestAllSoftwareChain(t *testing.T) {
	app, arch := chainApp(), refArch()
	m, err := NewMapping(app, arch)
	if err != nil {
		t.Fatal(err)
	}
	res := mustEval(t, app, arch, m)
	if res.Makespan != ms(30) {
		t.Fatalf("makespan = %v, want 30ms", res.Makespan)
	}
	if res.Comm != 0 || res.InitialReconfig != 0 || res.Contexts != 0 {
		t.Fatalf("unexpected HW activity: %+v", res)
	}
	if res.ComputeSW != ms(30) {
		t.Fatalf("ComputeSW = %v", res.ComputeSW)
	}
}

func TestOneTaskOnHardware(t *testing.T) {
	app, arch := chainApp(), refArch()
	m, _ := NewMapping(app, arch)
	// Move B to the RC, context 0.
	m.SWOrders[0] = []int{0}
	m.Assign[1] = Placement{Kind: model.KindRC, Res: 0, Ctx: 0}
	m.Impl[1] = 0
	m.Contexts[0] = []Context{{Tasks: []int{1}}}
	res := mustEval(t, app, arch, m)
	// A: [0,10); comm: [10,20); boot: 200 CLB × 10 µs = 2 ms, overlapped;
	// B starts at 20, runs 2 ms.
	if res.Makespan != ms(22) {
		t.Fatalf("makespan = %v, want 22ms", res.Makespan)
	}
	if res.InitialReconfig != ms(2) {
		t.Fatalf("initial reconfig = %v, want 2ms", res.InitialReconfig)
	}
	if res.Comm != ms(10) {
		t.Fatalf("comm = %v, want 10ms", res.Comm)
	}
	if res.Contexts != 1 {
		t.Fatalf("contexts = %d, want 1", res.Contexts)
	}
	if res.ComputeSW != ms(10) || res.ComputeHW != ms(2) {
		t.Fatalf("compute split wrong: %+v", res)
	}
}

func TestBothTasksOneContext(t *testing.T) {
	app, arch := chainApp(), refArch()
	m, _ := NewMapping(app, arch)
	m.SWOrders[0] = nil
	m.Assign[0] = Placement{Kind: model.KindRC, Res: 0, Ctx: 0}
	m.Assign[1] = Placement{Kind: model.KindRC, Res: 0, Ctx: 0}
	m.Contexts[0] = []Context{{Tasks: []int{0, 1}}}
	res := mustEval(t, app, arch, m)
	// Boot: 300 CLB × 10 µs = 3 ms. A: [3,4). Intra-RC flow is free.
	// B: [4,6). Makespan 6 ms.
	if res.Makespan != ms(6) {
		t.Fatalf("makespan = %v, want 6ms", res.Makespan)
	}
	if res.Comm != 0 {
		t.Fatalf("intra-RC comm should be free, got %v", res.Comm)
	}
	if res.DynamicReconfig != 0 {
		t.Fatalf("single context should have no dynamic reconfig, got %v", res.DynamicReconfig)
	}
}

func TestTwoContextsReconfigEdge(t *testing.T) {
	app, arch := chainApp(), refArch()
	m, _ := NewMapping(app, arch)
	m.SWOrders[0] = nil
	m.Assign[0] = Placement{Kind: model.KindRC, Res: 0, Ctx: 0}
	m.Assign[1] = Placement{Kind: model.KindRC, Res: 0, Ctx: 1}
	m.Contexts[0] = []Context{{Tasks: []int{0}}, {Tasks: []int{1}}}
	res := mustEval(t, app, arch, m)
	// Boot ctx0: 100×10µs = 1 ms. A: [1,2). Reconfig to ctx1: 200×10µs =
	// 2 ms. B: [4,6). Makespan 6 ms.
	if res.Makespan != ms(6) {
		t.Fatalf("makespan = %v, want 6ms", res.Makespan)
	}
	if res.InitialReconfig != ms(1) || res.DynamicReconfig != ms(2) {
		t.Fatalf("reconfig split = %v/%v, want 1ms/2ms", res.InitialReconfig, res.DynamicReconfig)
	}
	if res.Contexts != 2 {
		t.Fatalf("contexts = %d", res.Contexts)
	}
}

func TestOrderCycleDetected(t *testing.T) {
	app, arch := chainApp(), refArch()
	m, _ := NewMapping(app, arch)
	m.SWOrders[0] = []int{1, 0} // contradicts flow A->B
	e := NewEvaluator(app, arch)
	if _, err := e.Evaluate(m); err != ErrOrderCycle {
		t.Fatalf("err = %v, want ErrOrderCycle", err)
	}
}

// forkApp: two independent producers on the processor feeding two hardware
// consumers, to exercise bus contention.
func forkApp() *model.App {
	return &model.App{
		Name: "fork",
		Tasks: []model.Task{
			{Name: "A", SW: ms(1)},
			{Name: "B", SW: ms(1)},
			{Name: "C", SW: ms(50), HW: []model.Impl{{CLBs: 100, Time: ms(1)}}},
			{Name: "D", SW: ms(50), HW: []model.Impl{{CLBs: 100, Time: ms(1)}}},
		},
		Flows: []model.Flow{
			{From: 0, To: 2, Qty: 1_000_000},
			{From: 1, To: 3, Qty: 1_000_000},
		},
	}
}

func hwForkMapping(app *model.App, arch *model.Arch) *Mapping {
	m, _ := NewMapping(app, arch)
	m.SWOrders[0] = []int{0, 1}
	for _, t := range []int{2, 3} {
		m.Assign[t] = Placement{Kind: model.KindRC, Res: 0, Ctx: 0}
	}
	m.Contexts[0] = []Context{{Tasks: []int{2, 3}}}
	return m
}

func TestBusContentionSerializesTransfers(t *testing.T) {
	app := forkApp()
	arch := refArch()
	m := hwForkMapping(app, arch)
	free := mustEval(t, app, arch, m)
	// Without contention: A [0,1), B [1,2); transfers [1,11) and [2,12);
	// boot 2 ms; C [11,12), D [12,13).
	if free.Makespan != ms(13) {
		t.Fatalf("makespan without contention = %v, want 13ms", free.Makespan)
	}

	arch.Bus.Contention = true
	cont := mustEval(t, app, arch, m)
	// Transfer 2 now waits for transfer 1: [11,21); D [21,22).
	if cont.Makespan != ms(22) {
		t.Fatalf("makespan with contention = %v, want 22ms", cont.Makespan)
	}
	if cont.Makespan < free.Makespan {
		t.Fatal("contention reduced the makespan")
	}
}

func TestProcessorSpeedFactor(t *testing.T) {
	app, arch := chainApp(), refArch()
	arch.Processors[0].SpeedFactor = 2 // twice as fast
	m, _ := NewMapping(app, arch)
	res := mustEval(t, app, arch, m)
	if res.Makespan != ms(15) {
		t.Fatalf("makespan = %v, want 15ms", res.Makespan)
	}
}

func TestNewMappingHardwareOnlyTask(t *testing.T) {
	app := chainApp()
	app.Tasks[1].SW = 0 // B becomes hardware-only
	arch := refArch()
	m, err := NewMapping(app, arch)
	if err != nil {
		t.Fatal(err)
	}
	if m.Assign[1].Kind != model.KindRC {
		t.Fatalf("hardware-only task placed on %v", m.Assign[1].Kind)
	}
	res := mustEval(t, app, arch, m)
	if res.Makespan <= 0 {
		t.Fatal("empty makespan")
	}
}

func TestNewMappingErrors(t *testing.T) {
	app := chainApp()
	app.Tasks[1].SW = 0
	archNoRC := &model.Arch{Processors: []model.Processor{{}}, Bus: model.Bus{Rate: 1}}
	if _, err := NewMapping(app, archNoRC); err == nil {
		t.Fatal("hardware-only task without RC accepted")
	}
	archTiny := refArch()
	archTiny.RCs[0].NCLB = 50 // smaller than B's 200-CLB implementation
	if _, err := NewMapping(app, archTiny); err == nil {
		t.Fatal("oversized task accepted")
	}
}

func TestCheckMappingCorruptions(t *testing.T) {
	app, arch := chainApp(), refArch()
	fresh := func() *Mapping {
		m, _ := NewMapping(app, arch)
		m.SWOrders[0] = []int{0}
		m.Assign[1] = Placement{Kind: model.KindRC, Res: 0, Ctx: 0}
		m.Contexts[0] = []Context{{Tasks: []int{1}}}
		return m
	}
	cases := []struct {
		name string
		mut  func(*Mapping)
		want string
	}{
		{"missing from order", func(m *Mapping) { m.SWOrders[0] = nil }, "missing from its order"},
		{"duplicated in order", func(m *Mapping) { m.SWOrders[0] = []int{0, 0} }, "appears twice"},
		{"order wrong resource", func(m *Mapping) { m.SWOrders[0] = []int{0, 1} }, "ordered on processor"},
		{"bad impl", func(m *Mapping) { m.Impl[1] = 5 }, "selects implementation"},
		{"empty context", func(m *Mapping) { m.Contexts[0] = append(m.Contexts[0], Context{}) }, "is empty"},
		{"ctx backref", func(m *Mapping) { m.Assign[1].Ctx = 3 }, "missing context"},
		{"capacity", func(m *Mapping) { arch.RCs[0].NCLB = 10 }, "capacity"},
		{"bad kind", func(m *Mapping) { m.Assign[0].Kind = model.ResourceKind(7) }, "unknown resource kind"},
		{"missing proc", func(m *Mapping) { m.Assign[0].Res = 4 }, "missing processor"},
	}
	for _, c := range cases {
		arch = refArch() // reset capacity mutation
		m := fresh()
		c.mut(m)
		err := CheckMapping(app, arch, m)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want substring %q", c.name, err, c.want)
		}
	}
	if err := CheckMapping(app, arch, fresh()); err != nil {
		t.Fatalf("fresh mapping rejected: %v", err)
	}
}

func TestCloneIsDeep(t *testing.T) {
	app, arch := chainApp(), refArch()
	m, _ := NewMapping(app, arch)
	c := m.Clone()
	c.SWOrders[0][0] = 99
	c.Assign[0].Kind = model.KindASIC
	if m.SWOrders[0][0] == 99 || m.Assign[0].Kind == model.KindASIC {
		t.Fatal("clone shares memory with original")
	}
}

func TestGanttEntries(t *testing.T) {
	app, arch := chainApp(), refArch()
	m, _ := NewMapping(app, arch)
	m.SWOrders[0] = []int{0}
	m.Assign[1] = Placement{Kind: model.KindRC, Res: 0, Ctx: 0}
	m.Contexts[0] = []Context{{Tasks: []int{1}}}
	e := NewEvaluator(app, arch)
	if _, err := e.Evaluate(m); err != nil {
		t.Fatal(err)
	}
	entries := Gantt(e, m)
	lanes := map[string]bool{}
	for _, en := range entries {
		lanes[en.Lane] = true
		if en.End < en.Start {
			t.Fatalf("entry %+v ends before it starts", en)
		}
	}
	for _, want := range []string{"proc0", "rc0/ctx0", "bus", "rc0/config"} {
		if !lanes[want] {
			t.Fatalf("missing lane %q in %v", want, entries)
		}
	}
}

// randApp builds a random application where every task can run on both
// sides, for the invariant property tests.
func randApp(r *rand.Rand, n int) *model.App {
	a := &model.App{Name: "rand"}
	for i := 0; i < n; i++ {
		nImpl := 1 + r.Intn(3)
		var impls []model.Impl
		clbs := 50 + r.Intn(200)
		tm := model.FromMicros(float64(100 + r.Intn(2000)))
		for j := 0; j < nImpl; j++ {
			impls = append(impls, model.Impl{CLBs: clbs, Time: tm})
			clbs += 50 + r.Intn(100)
			tm = tm * 3 / 4
		}
		a.Tasks = append(a.Tasks, model.Task{
			Name: "t",
			SW:   model.FromMicros(float64(500 + r.Intn(5000))),
			HW:   impls,
		})
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if r.Float64() < 0.25 {
				a.Flows = append(a.Flows, model.Flow{From: u, To: v, Qty: int64(r.Intn(100_000))})
			}
		}
	}
	return a
}

func TestRandomMappingInvariants(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	for trial := 0; trial < 40; trial++ {
		app := randApp(r, 2+r.Intn(15))
		if err := app.Validate(); err != nil {
			t.Fatal(err)
		}
		arch := refArch()
		arch.Bus.Contention = trial%2 == 0
		m, err := RandomMapping(app, arch, r)
		if err != nil {
			t.Fatal(err)
		}
		if err := CheckMapping(app, arch, m); err != nil {
			t.Fatalf("random mapping invalid: %v", err)
		}
		e := NewEvaluator(app, arch)
		res, err := e.Evaluate(m)
		if err != nil {
			t.Fatalf("random mapping cyclic: %v", err)
		}
		// Determinism.
		res2, _ := e.Evaluate(m)
		if res != res2 {
			t.Fatalf("evaluation not deterministic: %+v vs %+v", res, res2)
		}
		// Upper bound: everything fully serialized.
		ub := res.ComputeSW + res.ComputeHW + res.Comm + res.InitialReconfig + res.DynamicReconfig
		if res.Makespan > ub {
			t.Fatalf("makespan %v exceeds serial bound %v", res.Makespan, ub)
		}
		// Lower bound: the longest task.
		var maxDur model.Time
		for i := 0; i < app.N(); i++ {
			if d := e.DurOf(e.TaskNode(i)); d > maxDur {
				maxDur = d
			}
		}
		if res.Makespan < maxDur {
			t.Fatalf("makespan %v below longest task %v", res.Makespan, maxDur)
		}
		// Precedence respected in start times.
		for k, fl := range app.Flows {
			cn := e.FlowNode(k)
			if e.StartOf(cn) < e.StartOf(fl.From)+e.DurOf(fl.From) {
				t.Fatal("communication starts before producer finishes")
			}
			if e.StartOf(fl.To) < e.StartOf(cn)+e.DurOf(cn) {
				t.Fatal("consumer starts before communication finishes")
			}
		}
	}
}

func TestContentionNeverHelps(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	for trial := 0; trial < 25; trial++ {
		app := randApp(r, 2+r.Intn(12))
		archFree := refArch()
		archCont := refArch()
		archCont.Bus.Contention = true
		m, err := RandomMapping(app, archFree, r)
		if err != nil {
			t.Fatal(err)
		}
		free, err := NewEvaluator(app, archFree).Evaluate(m)
		if err != nil {
			t.Fatal(err)
		}
		cont, err := NewEvaluator(app, archCont).Evaluate(m)
		if err != nil {
			t.Fatal(err)
		}
		if cont.Makespan < free.Makespan {
			t.Fatalf("contention improved makespan: %v < %v", cont.Makespan, free.Makespan)
		}
	}
}

func TestMappingCountsHelpers(t *testing.T) {
	app, arch := chainApp(), refArch()
	m, _ := NewMapping(app, arch)
	if m.TotalContexts() != 0 || m.HWTaskCount() != 0 {
		t.Fatal("all-sw mapping has HW stats")
	}
	m.SWOrders[0] = []int{0}
	m.Assign[1] = Placement{Kind: model.KindRC, Res: 0, Ctx: 0}
	m.Contexts[0] = []Context{{Tasks: []int{1}}}
	if m.TotalContexts() != 1 || m.HWTaskCount() != 1 || m.NumContexts(0) != 1 {
		t.Fatal("context counts wrong")
	}
	if m.ContextCLBs(app, 0, 0) != 200 {
		t.Fatalf("ContextCLBs = %d", m.ContextCLBs(app, 0, 0))
	}
}

// TestEvaluateSteadyStateAllocFree pins the layout growth: once both
// mappings have been evaluated, alternating between them allocates
// nothing. Each puts 20 independent tasks in one context and 20 in the
// next, in opposite orders, so each fills the rows of the tasks the other
// leaves empty (20 edges from every terminal task of the first context);
// a relayout must keep that room rather than shrink the rows the mapping
// at hand does not use.
func TestEvaluateSteadyStateAllocFree(t *testing.T) {
	const n = 40
	app := &model.App{Name: "wide"}
	for i := 0; i < n; i++ {
		app.Tasks = append(app.Tasks, model.Task{Name: "t", SW: ms(1), HW: []model.Impl{{CLBs: 10, Time: ms(0.1)}}})
	}
	arch := refArch()
	split := func(first, second int) *Mapping {
		m := &Mapping{
			Assign:   make([]Placement, n),
			Impl:     make([]int, n),
			SWOrders: make([][]int, 1),
			Contexts: [][]Context{{{}, {}}},
		}
		for t := 0; t < n; t++ {
			ci := first
			if t >= n/2 {
				ci = second
			}
			m.Assign[t] = Placement{Kind: model.KindRC, Res: 0, Ctx: ci}
			m.Contexts[0][ci].Tasks = append(m.Contexts[0][ci].Tasks, t)
		}
		return m
	}
	a, b := split(0, 1), split(1, 0)
	for _, m := range []*Mapping{a, b} {
		if err := CheckMapping(app, arch, m); err != nil {
			t.Fatal(err)
		}
	}
	e := NewEvaluator(app, arch)
	evalBoth := func() {
		for _, m := range []*Mapping{a, b} {
			if _, err := e.Evaluate(m); err != nil {
				t.Fatal(err)
			}
		}
	}
	evalBoth()
	if allocs := testing.AllocsPerRun(5, evalBoth); allocs != 0 {
		t.Fatalf("alternating two evaluated mappings allocates %.1f times", allocs)
	}
}
