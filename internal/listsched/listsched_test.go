package listsched

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/apps"
	"repro/internal/model"
	"repro/internal/sched"
)

func motion() (*model.App, *model.Arch) {
	cfg := apps.DefaultMotionConfig()
	return apps.MotionDetection(cfg), apps.MotionArch(2000, cfg)
}

func TestRanksMonotoneAlongEdges(t *testing.T) {
	app, _ := motion()
	rank := Ranks(app)
	for _, f := range app.Flows {
		if rank[f.From] <= rank[f.To] {
			t.Fatalf("rank not decreasing along edge %d->%d: %v vs %v", f.From, f.To, rank[f.From], rank[f.To])
		}
	}
	// The source's rank equals the longest SW chain through the graph.
	if rank[0] <= 0 {
		t.Fatal("source rank must be positive")
	}
}

func TestBuildAllSoftware(t *testing.T) {
	app, arch := motion()
	hw := make([]bool, app.N())
	m, err := NewDecoder(app, arch).Build(hw, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := sched.CheckMapping(app, arch, m); err != nil {
		t.Fatal(err)
	}
	res, err := sched.NewEvaluator(app, arch).Evaluate(m)
	if err != nil {
		t.Fatal(err)
	}
	// All software on one processor: the paper's 76.4 ms reference.
	if res.Makespan != model.FromMillis(76.4) {
		t.Fatalf("all-SW makespan = %v, want 76.4ms", res.Makespan)
	}
}

func TestBuildAllHardwarePacksContexts(t *testing.T) {
	app, arch := motion()
	hw := make([]bool, app.N())
	for i := range hw {
		hw[i] = true
	}
	m, err := NewDecoder(app, arch).Build(hw, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := sched.CheckMapping(app, arch, m); err != nil {
		t.Fatal(err)
	}
	if m.TotalContexts() < 2 {
		t.Fatalf("28 tasks at smallest impls cannot fit one 2000-CLB context; got %d contexts", m.TotalContexts())
	}
	if _, err := sched.NewEvaluator(app, arch).Evaluate(m); err != nil {
		t.Fatalf("list-scheduled mapping must be acyclic: %v", err)
	}
}

func TestBuildRespectsCapability(t *testing.T) {
	app, arch := motion()
	app.Tasks[0].HW = nil // task 0 becomes software-only
	app.Tasks[1].SW = 0   // task 1 becomes hardware-only
	hw := make([]bool, app.N())
	hw[0] = true  // request impossible hardware
	hw[1] = false // request impossible software
	m, err := NewDecoder(app, arch).Build(hw, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.Assign[0].Kind != model.KindProcessor {
		t.Fatal("software-only task placed in hardware")
	}
	if m.Assign[1].Kind != model.KindRC {
		t.Fatal("hardware-only task placed in software")
	}
}

func TestBuildClampsImplGene(t *testing.T) {
	app, arch := motion()
	hw := make([]bool, app.N())
	hw[5] = true
	impl := make([]int, app.N())
	impl[5] = 99 // out of range: clamp to smallest
	m, err := NewDecoder(app, arch).Build(hw, impl)
	if err != nil {
		t.Fatal(err)
	}
	if err := sched.CheckMapping(app, arch, m); err != nil {
		t.Fatal(err)
	}
}

func TestBuildOversizedDeviceFallsBack(t *testing.T) {
	app, _ := motion()
	tiny := apps.MotionArch(50, apps.DefaultMotionConfig()) // nothing fits
	hw := make([]bool, app.N())
	for i := range hw {
		hw[i] = true
	}
	m, err := NewDecoder(app, tiny).Build(hw, nil)
	if err != nil {
		t.Fatal(err)
	}
	for t2, pl := range m.Assign {
		if pl.Kind != model.KindProcessor {
			t.Fatalf("task %d placed on 50-CLB device", t2)
		}
	}
}

func TestBuildErrors(t *testing.T) {
	app, arch := motion()
	if _, err := NewDecoder(app, arch).Build(make([]bool, 3), nil); err == nil {
		t.Fatal("wrong-size assignment accepted")
	}
	noProc := &model.Arch{RCs: arch.RCs, Bus: arch.Bus}
	if _, err := NewDecoder(app, noProc).Build(make([]bool, app.N()), nil); err == nil {
		t.Fatal("processor-less architecture accepted")
	}
}

// TestDecoderReuseMatchesBuild decodes a run of random assignments, from
// all-software to all-hardware, into one reused mapping and checks each
// against a decode into a new mapping: storage left over from an earlier,
// differently shaped decode must never leak into a later one.
func TestDecoderReuseMatchesBuild(t *testing.T) {
	app, arch := motion()
	d := NewDecoder(app, arch)
	r := rand.New(rand.NewSource(3))
	var scratch sched.Mapping
	for i := 0; i < 200; i++ {
		p := r.Float64()
		hw := make([]bool, app.N())
		impl := make([]int, app.N())
		for t := range hw {
			hw[t] = r.Float64() < p
			impl[t] = r.Intn(4)
		}
		want, werr := d.Build(hw, impl)
		gerr := d.BuildInto(&scratch, hw, impl)
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("decode %d: Build error %v, BuildInto error %v", i, werr, gerr)
		}
		if werr != nil {
			continue
		}
		if got, w := fmt.Sprint(scratch), fmt.Sprint(*want); got != w {
			t.Fatalf("decode %d: reused mapping\n  %s\ndiffers from fresh\n  %s", i, got, w)
		}
		if err := sched.CheckMapping(app, arch, &scratch); err != nil {
			t.Fatalf("decode %d: %v", i, err)
		}
	}
}
