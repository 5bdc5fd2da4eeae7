package runner

import (
	"strings"
	"testing"
)

// oldWireOutcome is a literal snapshot entry exactly as a pre-batch
// release encoded it: no speculated/discarded/earlyStopped/move* keys.
const oldWireOutcome = `{"eval":{"Makespan":1500000,"ComputeSW":1000000,"ComputeHW":200000,"Comm":100000,"InitialReconfig":150000,"DynamicReconfig":50000,"Contexts":2},"metDeadline":true,"evaluations":420,"cost":1.5,"hasCost":true}`

// TestDecodeOldSnapshotOutcome pins snapshot forward-compatibility: an
// outcome persisted by a release that predates the batch/early-stop
// telemetry must restore cleanly with zero values for the new fields.
func TestDecodeOldSnapshotOutcome(t *testing.T) {
	o, err := DecodeOutcome([]byte(oldWireOutcome))
	if err != nil {
		t.Fatalf("old-format outcome rejected: %v", err)
	}
	if o.Evaluations != 420 || o.Cost != 1.5 || !o.HasCost || !o.MetDeadline {
		t.Fatalf("old fields mangled: %+v", o)
	}
	if o.Speculated != 0 || o.Discarded != 0 || o.EarlyStopped ||
		o.MoveProposed != nil || o.MoveAccepted != nil {
		t.Fatalf("new fields not zero on old snapshot: %+v", o)
	}
}

// TestEncodeSerialOutcomeBackwardCompatible pins the other direction: an
// outcome of a serial, non-early-stopped run — all new fields zero —
// must encode without any of the new keys, so snapshot digests of
// existing caches are unchanged by this release.
func TestEncodeSerialOutcomeBackwardCompatible(t *testing.T) {
	o, err := DecodeOutcome([]byte(oldWireOutcome))
	if err != nil {
		t.Fatal(err)
	}
	b, err := EncodeOutcome(o)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"speculated", "discarded", "earlyStopped", "moveProposed", "moveAccepted"} {
		if strings.Contains(string(b), key) {
			t.Fatalf("zero-valued %q leaked into the wire encoding: %s", key, b)
		}
	}
	// Full round trip: decode the re-encoding and compare the scalars.
	o2, err := DecodeOutcome(b)
	if err != nil {
		t.Fatal(err)
	}
	if o2.Eval != o.Eval || o2.Cost != o.Cost || o2.Evaluations != o.Evaluations {
		t.Fatalf("round trip mangled the outcome: %+v vs %+v", o2, o)
	}
}

// TestCodecCarriesBatchTelemetry: the new fields round-trip when present,
// and cloneOutcome deep-copies the counter maps so cache-resident state
// never aliases a consumer's.
func TestCodecCarriesBatchTelemetry(t *testing.T) {
	o, err := DecodeOutcome([]byte(oldWireOutcome))
	if err != nil {
		t.Fatal(err)
	}
	o.Speculated = 96
	o.Discarded = 33
	o.EarlyStopped = true
	o.MoveProposed = map[string]int64{"reorder": 40, "reassign": 56}
	o.MoveAccepted = map[string]int64{"reassign": 12}

	b, err := EncodeOutcome(o)
	if err != nil {
		t.Fatal(err)
	}
	o2, err := DecodeOutcome(b)
	if err != nil {
		t.Fatal(err)
	}
	if o2.Speculated != 96 || o2.Discarded != 33 || !o2.EarlyStopped {
		t.Fatalf("telemetry lost in round trip: %+v", o2)
	}
	if o2.MoveProposed["reassign"] != 56 || o2.MoveAccepted["reassign"] != 12 {
		t.Fatalf("move counters lost in round trip: %+v", o2)
	}

	c := cloneOutcome(o)
	c.MoveProposed["reorder"] = 999
	c.MoveAccepted["reassign"] = 999
	if o.MoveProposed["reorder"] != 40 || o.MoveAccepted["reassign"] != 12 {
		t.Fatal("cloneOutcome aliases the counter maps")
	}
}

// TestDecodeSkipsLaneKeys: an outcome written by a release that still
// recorded the lane kernel's counts restores, with its lane keys ignored.
func TestDecodeSkipsLaneKeys(t *testing.T) {
	withLanes := strings.TrimSuffix(oldWireOutcome, "}") +
		`,"laneRounds":7,"laneLanes":40,"laneSweepNodes":900,"laneRelax":350}`
	o, err := DecodeOutcome([]byte(withLanes))
	if err != nil {
		t.Fatalf("outcome with lane keys rejected: %v", err)
	}
	old, err := DecodeOutcome([]byte(oldWireOutcome))
	if err != nil {
		t.Fatal(err)
	}
	if !sameOutcome(o, old) {
		t.Fatalf("lane keys changed the decoded outcome:\n  %+v\n  %+v", o, old)
	}
}
