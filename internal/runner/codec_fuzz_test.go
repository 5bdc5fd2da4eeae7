package runner

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/pareto"
	"repro/internal/sched"
	"repro/internal/search"
)

// FuzzDecodeOutcome hardens the decoder behind every snapshot restore: no
// input may panic it, and whatever it accepts must re-encode with
// EncodeOutcome and decode again to an equal outcome whose encoding is
// the same bytes. Run with
//
//	go test -fuzz=FuzzDecodeOutcome ./internal/runner
func FuzzDecodeOutcome(f *testing.F) {
	f.Add([]byte(oldWireOutcome))
	for _, o := range codecSamples() {
		b, err := EncodeOutcome(o)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		o, err := DecodeOutcome(b)
		if err != nil {
			return
		}
		enc, err := EncodeOutcome(o)
		if err != nil {
			t.Fatalf("a decoded outcome does not encode: %v", err)
		}
		o2, err := DecodeOutcome(enc)
		if err != nil {
			t.Fatalf("the re-encoding %s does not decode: %v", enc, err)
		}
		if !sameOutcome(o, o2) {
			t.Fatalf("the round trip changed the outcome:\n  %+v\n  %+v", o, o2)
		}
		enc2, err := EncodeOutcome(o2)
		if err != nil || !bytes.Equal(enc, enc2) {
			t.Fatalf("the encoding is not stable (%v):\n  %s\n  %s", err, enc, enc2)
		}
	})
}

// sameOutcome compares two outcomes field by field, their fronts by their
// sorted points (an archive's insertion order is not part of the wire
// form).
func sameOutcome(a, b *Outcome) bool {
	fa, fb := a.Front, b.Front
	if (fa == nil) != (fb == nil) {
		return false
	}
	if fa != nil && (fa.Dims() != fb.Dims() || !reflect.DeepEqual(fa.Points(), fb.Points())) {
		return false
	}
	ca, cb := *a, *b
	ca.Front, cb.Front = nil, nil
	return reflect.DeepEqual(ca, cb)
}

// codecSamples are the outcomes of the codec tests, and one that carries
// every optional part: a mapping, a front and scheduler telemetry.
func codecSamples() []*Outcome {
	old, err := DecodeOutcome([]byte(oldWireOutcome))
	if err != nil {
		panic(err)
	}
	tele := cloneOutcome(old)
	tele.Speculated, tele.Discarded, tele.EarlyStopped = 96, 33, true
	tele.MoveProposed = map[string]int64{"reorder": 40, "reassign": 56}
	tele.MoveAccepted = map[string]int64{"reassign": 12}

	full := cloneOutcome(tele)
	full.Best = &sched.Mapping{
		Assign:   []sched.Placement{{Kind: 0, Res: 0}, {Kind: 1, Res: 0, Ctx: 0}, {Kind: 1, Res: 0, Ctx: 1}},
		Impl:     []int{0, 1, 0},
		SWOrders: [][]int{{0}},
		Contexts: [][]sched.Context{{{Tasks: []int{1}}, {Tasks: []int{2}}}},
	}
	full.Front = pareto.NewNArchive(2)
	full.Front.Add([]float64{3, 1.5}, 0)
	full.Front.Add([]float64{1, 2.5}, 4)
	full.Sched = &search.SchedStats{
		Policy: "ucb",
		Slice:  8,
		Arms:   []search.ArmStats{{Name: "sa", Slices: 3, Steps: 24, Reward: 0.5}, {Name: "ga", Slices: 1, Steps: 8}},
	}
	return []*Outcome{old, tele, full}
}
