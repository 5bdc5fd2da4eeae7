package sched_test

import (
	"math/rand"
	"testing"

	"repro/internal/apps"
	"repro/internal/model"
	"repro/internal/scenario"
	"repro/internal/sched"
)

// TestIncUpdateMatchesEvaluate seats whole random mappings through
// IncEvaluator.Update, each with a change set that names every task,
// processor and RC, and requires every exact update to equal a full
// rebuild of the same mapping. On a contention bus every fifth update is
// cut at its chain-free bound, so the next exact update must catch the
// full graph up from the state a cut leaves behind; every 25th mapping is
// seated with Install instead, as a quench restart re-seats a used
// evaluator. The full rebuild offers its own stop hook the same bound, on
// a contention bus only, and after one of its own cuts in every five it
// must still be exact. The fork instance covers contention chains of zero,
// one and two members; the parallel-flow instance and the four large
// corpus instances run with contention on and off. The parallel-flow
// instance must also produce mappings where a flow's endpoints are
// adjacent in a processor order and where they sit in consecutive
// contexts, so that a flow edge joins the same task pair as an order or a
// context edge.
func TestIncUpdateMatchesEvaluate(t *testing.T) {
	type instance struct {
		name string
		app  *model.App
		arch *model.Arch
	}
	forkArch := sched.RefArch()
	forkArch.Bus.Contention = true
	insts := []instance{{"fork", sched.ForkApp(), forkArch}}
	for _, cont := range []bool{true, false} {
		insts = append(insts, instance{"parallel", parallelFlowApp(t), parallelArch(cont)})
	}
	for _, name := range []string{"layered-large", "layered-xl", "forkjoin-large", "pipeline-chain-large"} {
		s, ok := scenario.Lookup(name)
		if !ok {
			t.Fatalf("scenario %s not registered", name)
		}
		app, arch, err := s.Instantiate()
		if err != nil {
			t.Fatal(err)
		}
		for _, cont := range []bool{true, false} {
			a := *arch
			a.Bus.Contention = cont
			insts = append(insts, instance{name, app, &a})
		}
	}
	for _, in := range insts {
		inc, err := sched.NewIncEvaluator(in.app, in.arch)
		if err != nil {
			t.Fatal(err)
		}
		ref := sched.NewEvaluator(in.app, in.arch)
		rng := rand.New(rand.NewSource(1))
		m, err := sched.RandomMapping(in.app, in.arch, rng)
		if err != nil {
			t.Fatal(err)
		}
		got, err := inc.Install(m)
		if err != nil {
			t.Fatal(err)
		}
		if want, _ := ref.Evaluate(m); got != want {
			t.Fatalf("%s contention=%v: Install = %+v, Evaluate = %+v", in.name, in.arch.Bus.Contention, got, want)
		}
		cs := sched.NewChangeSet(in.app.N(), len(in.arch.Processors), len(in.arch.RCs))
		chains := map[int]bool{}
		var orderPairs, ctxPairs int
		for i := 0; i < 200; i++ {
			m, err := sched.RandomMapping(in.app, in.arch, rng)
			if err != nil {
				t.Fatal(err)
			}
			chains[crossFlows(in.app, m)] = true
			o, c := flowsBesideLayerEdges(in.app, m)
			orderPairs += o
			ctxPairs += c
			markAll(cs, in.app, in.arch)
			if in.arch.Bus.Contention && i%5 == 2 {
				if _, err := ref.EvaluateStop(m, func(sched.Result) bool { return true }); err != sched.ErrCut {
					t.Fatalf("%s update %d: a full-path cut returned %v", in.name, i, err)
				}
			}
			var fullLB *sched.Result
			want, err := ref.EvaluateStop(m, func(lb sched.Result) bool { fullLB = &lb; return false })
			if err != nil {
				t.Fatal(err)
			}
			if (fullLB != nil) != in.arch.Bus.Contention {
				t.Fatalf("%s contention=%v update %d: the full path offered its hook %v", in.name, in.arch.Bus.Contention, i, fullLB)
			}
			var stop func(sched.Result) bool
			if in.arch.Bus.Contention && i%5 == 4 {
				stop = func(lb sched.Result) bool {
					exact := lb
					exact.Makespan = want.Makespan
					if lb.Makespan > want.Makespan || exact != want || lb != *fullLB {
						t.Errorf("%s update %d: chain-free bound %+v does not bound %+v or differs from the full path's %+v", in.name, i, lb, want, *fullLB)
					}
					return true
				}
			}
			var got sched.Result
			if i%25 == 12 {
				got, err = inc.Install(m)
			} else {
				got, err = inc.Update(m, cs, stop)
			}
			if stop != nil {
				if err != sched.ErrCut {
					t.Fatalf("%s update %d: cut returned %v", in.name, i, err)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s contention=%v update %d: %v", in.name, in.arch.Bus.Contention, i, err)
			}
			if got != want {
				t.Fatalf("%s contention=%v update %d: Update = %+v, Evaluate = %+v", in.name, in.arch.Bus.Contention, i, got, want)
			}
		}
		if in.name == "fork" && !(chains[0] && chains[1] && chains[2]) {
			t.Fatalf("fork mappings covered contention chains of sizes %v, want 0, 1 and 2", chains)
		}
		if in.name == "parallel" && (orderPairs == 0 || ctxPairs == 0) {
			t.Fatalf("parallel mappings put %d flows beside an order edge and %d across consecutive contexts, want both > 0", orderPairs, ctxPairs)
		}
	}
}

// TestContentionSweepOrder is the property behind the contention sweep:
// on random mappings of contention instances, seated by Install and
// Update, every edge of the chain-free graph, every cross flow's producer
// and consumer edge and every chain link goes forward in the sweep order.
func TestContentionSweepOrder(t *testing.T) {
	forkArch := sched.RefArch()
	forkArch.Bus.Contention = true
	type instance struct {
		name string
		app  *model.App
		arch *model.Arch
	}
	insts := []instance{{"fork", sched.ForkApp(), forkArch}, {"parallel", parallelFlowApp(t), parallelArch(true)}}
	for _, name := range []string{"layered-large", "forkjoin-large"} {
		s, _ := scenario.Lookup(name)
		app, arch, err := s.Instantiate()
		if err != nil {
			t.Fatal(err)
		}
		a := *arch
		a.Bus.Contention = true
		insts = append(insts, instance{name, app, &a})
	}
	for _, in := range insts {
		inc, err := sched.NewIncEvaluator(in.app, in.arch)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(7))
		cs := sched.NewChangeSet(in.app.N(), len(in.arch.Processors), len(in.arch.RCs))
		sweeps := 0
		for i := 0; i < 60; i++ {
			m, err := sched.RandomMapping(in.app, in.arch, rng)
			if err != nil {
				t.Fatal(err)
			}
			if crossFlows(in.app, m) >= 2 {
				sweeps++ // a chain of two or more transfers is swept
			}
			if i%10 == 0 {
				_, err = inc.Install(m)
			} else {
				markAll(cs, in.app, in.arch)
				_, err = inc.Update(m, cs, nil)
			}
			if err != nil {
				t.Fatal(err)
			}
			if err := inc.VerifySweep(); err != nil {
				t.Fatalf("%s mapping %d: %v", in.name, i, err)
			}
		}
		if sweeps < 10 {
			t.Fatalf("%s: only %d of 60 mappings had a contention chain to sweep", in.name, sweeps)
		}
	}
}

// parallelFlowApp is a small layered application in which every third flow
// has a parallel twin of another volume, and the last task pair joined by
// a flow gets a third one.
func parallelFlowApp(t *testing.T) *model.App {
	t.Helper()
	cfg := apps.DefaultRandomConfig()
	cfg.Tasks, cfg.Layers, cfg.EdgeProb = 16, 5, 0.5
	app, err := apps.Layered(rand.New(rand.NewSource(3)), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for k, n := 0, len(app.Flows); k < n; k += 3 {
		fl := app.Flows[k]
		fl.Qty = fl.Qty/2 + 1024
		app.Flows = append(app.Flows, fl)
	}
	app.Flows = append(app.Flows, app.Flows[len(app.Flows)-1])
	if err := app.Validate(); err != nil {
		t.Fatal(err)
	}
	return app
}

// parallelArch gives parallelFlowApp two processors and two RCs, so that
// random mappings often put a flow's endpoints next to each other in a
// processor order or in consecutive contexts.
func parallelArch(contention bool) *model.Arch {
	return &model.Arch{
		Name:       "parallel",
		Processors: []model.Processor{{Name: "p0"}, {Name: "p1", SpeedFactor: 1.5}},
		RCs: []model.RC{
			{Name: "rc0", NCLB: 600, TR: model.FromMicros(20)},
			{Name: "rc1", NCLB: 400, TR: model.FromMicros(10)},
		},
		Bus: model.Bus{Rate: 20_000_000, Contention: contention},
	}
}

// flowsBesideLayerEdges counts the flows of m whose producer directly
// precedes the consumer in a processor order, and those whose producer
// sits in the context right before the consumer's on the same RC.
func flowsBesideLayerEdges(app *model.App, m *sched.Mapping) (order, ctx int) {
	for _, fl := range app.Flows {
		pu, pv := m.Assign[fl.From], m.Assign[fl.To]
		switch {
		case pu.Kind == model.KindProcessor && pv == pu:
			ord := m.SWOrders[pu.Res]
			for i := 1; i < len(ord); i++ {
				if ord[i-1] == fl.From && ord[i] == fl.To {
					order++
				}
			}
		case pu.Kind == model.KindRC && pv.Kind == model.KindRC && pu.Res == pv.Res && pv.Ctx == pu.Ctx+1:
			ctx++
		}
	}
	return order, ctx
}

// markAll resets cs to name every task, processor and RC: the change set
// of a whole new mapping.
func markAll(cs *sched.ChangeSet, app *model.App, arch *model.Arch) {
	cs.Reset()
	for t := 0; t < app.N(); t++ {
		cs.AddTask(t)
	}
	for p := range arch.Processors {
		cs.AddProc(p)
	}
	for r := range arch.RCs {
		cs.AddRC(r)
	}
}

// crossFlows counts the flows of m that cross resources, the members of
// its contention chain.
func crossFlows(app *model.App, m *sched.Mapping) int {
	n := 0
	for _, fl := range app.Flows {
		if pu, pv := m.Assign[fl.From], m.Assign[fl.To]; pu.Kind != pv.Kind || pu.Res != pv.Res {
			n++
		}
	}
	return n
}
