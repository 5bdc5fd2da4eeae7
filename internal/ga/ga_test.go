package ga

import (
	"testing"

	"repro/internal/apps"
	"repro/internal/model"
	"repro/internal/sched"
)

func smallConfig(seed int64) Config {
	cfg := DefaultConfig()
	cfg.Population = 40
	cfg.Generations = 25
	cfg.Stall = 10
	cfg.Seed = seed
	return cfg
}

func TestGAImprovesOverAllSoftware(t *testing.T) {
	mcfg := apps.DefaultMotionConfig()
	app := apps.MotionDetection(mcfg)
	arch := apps.MotionArch(2000, mcfg)
	res, err := Explore(app, arch, smallConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	if res.BestEval.Makespan >= model.FromMillis(76.4) {
		t.Fatalf("GA best %v not better than all-software 76.4ms", res.BestEval.Makespan)
	}
	if err := sched.CheckMapping(app, arch, res.Best); err != nil {
		t.Fatalf("GA best mapping invalid: %v", err)
	}
	fresh, err := sched.NewEvaluator(app, arch).Evaluate(res.Best)
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Makespan != res.BestEval.Makespan {
		t.Fatalf("stored makespan %v != fresh %v", res.BestEval.Makespan, fresh.Makespan)
	}
	if res.Evaluations == 0 || res.Generations == 0 {
		t.Fatalf("implausible counters: %+v", res)
	}
}

func TestGADeterministic(t *testing.T) {
	mcfg := apps.DefaultMotionConfig()
	app := apps.MotionDetection(mcfg)
	arch := apps.MotionArch(2000, mcfg)
	a, err := Explore(app, arch, smallConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Explore(app, arch, smallConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	if a.BestEval.Makespan != b.BestEval.Makespan || a.Evaluations != b.Evaluations {
		t.Fatalf("nondeterministic GA: %v/%d vs %v/%d",
			a.BestEval.Makespan, a.Evaluations, b.BestEval.Makespan, b.Evaluations)
	}
}

func TestGAConfigValidation(t *testing.T) {
	mcfg := apps.DefaultMotionConfig()
	app := apps.MotionDetection(mcfg)
	arch := apps.MotionArch(2000, mcfg)
	bad := smallConfig(1)
	bad.Population = 1
	if _, err := Explore(app, arch, bad); err == nil {
		t.Fatal("population 1 accepted")
	}
	bad = smallConfig(1)
	bad.Generations = 0
	if _, err := Explore(app, arch, bad); err == nil {
		t.Fatal("zero generations accepted")
	}
	bad = smallConfig(1)
	bad.Population = Elite
	if _, err := Explore(app, arch, bad); err == nil {
		t.Fatal("all-elite accepted")
	}
	if _, err := Explore(&model.App{}, arch, smallConfig(1)); err == nil {
		t.Fatal("invalid app accepted")
	}
}

func TestGAEarlyStallStop(t *testing.T) {
	mcfg := apps.DefaultMotionConfig()
	app := apps.MotionDetection(mcfg)
	arch := apps.MotionArch(2000, mcfg)
	cfg := smallConfig(5)
	cfg.Generations = 1000
	cfg.Stall = 3
	res, err := Explore(app, arch, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Generations >= 1000 {
		t.Fatal("stall stop ignored")
	}
}

// TestStepRecyclesGenerations pins the steady-state allocation of a
// generation: children are decoded into one scratch mapping and stored in
// the genomes of the generation before last, so a Step allocates only
// small selection buffers, not a mapping and a genome per child.
func TestStepRecyclesGenerations(t *testing.T) {
	mcfg := apps.DefaultMotionConfig()
	app := apps.MotionDetection(mcfg)
	arch := apps.MotionArch(2000, mcfg)
	cfg := smallConfig(5)
	cfg.Generations, cfg.Stall = 1000, 0
	g, err := New(app, arch, cfg)
	if err != nil {
		t.Fatal(err)
	}
	g.Step()
	g.Step()
	if allocs := testing.AllocsPerRun(20, func() { g.Step() }); allocs > float64(cfg.Population)/4 {
		t.Fatalf("a generation of %d children allocates %.1f times", cfg.Population, allocs)
	}
}
