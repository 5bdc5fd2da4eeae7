package sched_test

import (
	"math/rand"
	"testing"

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
// seated with Install instead, as the run recycler re-seats a used
// evaluator. The full rebuild offers its own stop hook the same bound, on
// a contention bus only, and after one of its own cuts in every five it
// must still be exact. The fork instance covers contention chains of zero,
// one and two members; the four large corpus instances run with
// contention on and off.
func TestIncUpdateMatchesEvaluate(t *testing.T) {
	type instance struct {
		name string
		app  *model.App
		arch *model.Arch
	}
	forkArch := sched.RefArch()
	forkArch.Bus.Contention = true
	insts := []instance{{"fork", sched.ForkApp(), forkArch}}
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
		for i := 0; i < 200; i++ {
			m, err := sched.RandomMapping(in.app, in.arch, rng)
			if err != nil {
				t.Fatal(err)
			}
			chains[crossFlows(in.app, m)] = true
			cs.Reset()
			for tk := 0; tk < in.app.N(); tk++ {
				cs.AddTask(tk)
			}
			for p := range in.arch.Processors {
				cs.AddProc(p)
			}
			for r := range in.arch.RCs {
				cs.AddRC(r)
			}
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
