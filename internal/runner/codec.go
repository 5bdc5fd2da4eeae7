package runner

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/memo"
	"repro/internal/pareto"
	"repro/internal/sched"
	"repro/internal/search"
)

// Outcome wire codec: the snapshot persistence format of one cached run
// result. JSON keeps the codec honest against struct evolution (unknown
// fields fail loudly in tests, field renames show up in the golden
// digests) and the mapping/result types are plain exported data. The
// N-dimensional Pareto front needs an explicit projection — its archive
// type is deliberately opaque.

// frontWire is the serialized form of a pareto.NArchive.
type frontWire struct {
	Dims   int         `json:"dims"`
	Points []pointWire `json:"points"`
}

type pointWire struct {
	V  []float64 `json:"v"`
	ID int       `json:"id"`
}

// outcomeWire is the serialized form of one cached Outcome. FromCache is
// deliberately absent: it describes a delivery, not the solution, and is
// reset on every cache exit anyway.
type outcomeWire struct {
	Best        *sched.Mapping `json:"best,omitempty"`
	Eval        sched.Result   `json:"eval"`
	MetDeadline bool           `json:"metDeadline"`
	Front       *frontWire     `json:"front,omitempty"`
	Evaluations int            `json:"evaluations"`
	Cost        float64        `json:"cost"`
	HasCost     bool           `json:"hasCost"`
	// The batch/early-stop telemetry is omitempty in both directions:
	// snapshots written by earlier releases decode with zero values, and
	// outcomes of serial runs encode byte-identically to earlier releases
	// (golden snapshot digests unchanged).
	Speculated   int              `json:"speculated,omitempty"`
	Discarded    int              `json:"discarded,omitempty"`
	EarlyStopped bool             `json:"earlyStopped,omitempty"`
	MoveProposed map[string]int64 `json:"moveProposed,omitempty"`
	MoveAccepted map[string]int64 `json:"moveAccepted,omitempty"`
	// Sched carries the scheduler/transfer telemetry; absent for runs
	// without it, so pre-PR10 snapshots decode to nil and non-scheduled
	// outcomes encode byte-identically to earlier releases.
	Sched *search.SchedStats `json:"sched,omitempty"`
}

// EncodeOutcome serializes a cached outcome for snapshot persistence.
func EncodeOutcome(o *Outcome) ([]byte, error) {
	if o == nil {
		return nil, fmt.Errorf("runner: encoding nil outcome")
	}
	w := outcomeWire{
		Best:         o.Best,
		Eval:         o.Eval,
		MetDeadline:  o.MetDeadline,
		Evaluations:  o.Evaluations,
		Cost:         o.Cost,
		HasCost:      o.HasCost,
		Speculated:   o.Speculated,
		Discarded:    o.Discarded,
		EarlyStopped: o.EarlyStopped,
		MoveProposed: o.MoveProposed,
		MoveAccepted: o.MoveAccepted,
		Sched:        o.Sched,
	}
	if o.Front != nil {
		fw := &frontWire{Dims: o.Front.Dims()}
		for _, p := range o.Front.Points() {
			fw.Points = append(fw.Points, pointWire{V: p.V, ID: p.ID})
		}
		w.Front = fw
	}
	return json.Marshal(&w)
}

// DecodeOutcome reverses EncodeOutcome. The decoded outcome owns all its
// storage (fresh mapping, fresh archive), so it is safe to hand straight
// to the cache.
func DecodeOutcome(b []byte) (*Outcome, error) {
	var w outcomeWire
	if err := json.Unmarshal(b, &w); err != nil {
		return nil, fmt.Errorf("runner: decoding outcome: %w", err)
	}
	// The encoder omits an empty counter map or arm list, so they decode
	// as absent: a decoded outcome then survives a round trip unchanged.
	if len(w.MoveProposed) == 0 {
		w.MoveProposed = nil
	}
	if len(w.MoveAccepted) == 0 {
		w.MoveAccepted = nil
	}
	if w.Sched != nil && len(w.Sched.Arms) == 0 {
		w.Sched.Arms = nil
	}
	o := &Outcome{
		Best:         w.Best,
		Eval:         w.Eval,
		MetDeadline:  w.MetDeadline,
		Evaluations:  w.Evaluations,
		Cost:         w.Cost,
		HasCost:      w.HasCost,
		Speculated:   w.Speculated,
		Discarded:    w.Discarded,
		EarlyStopped: w.EarlyStopped,
		MoveProposed: w.MoveProposed,
		MoveAccepted: w.MoveAccepted,
		Sched:        w.Sched,
	}
	if w.Front != nil {
		if w.Front.Dims < 1 {
			return nil, fmt.Errorf("runner: decoding outcome: front with %d dims", w.Front.Dims)
		}
		f := pareto.NewNArchive(w.Front.Dims)
		for _, p := range w.Front.Points {
			if len(p.V) != w.Front.Dims {
				return nil, fmt.Errorf("runner: decoding outcome: front point has %d coords, want %d", len(p.V), w.Front.Dims)
			}
			f.Add(p.V, p.ID)
		}
		o.Front = f
	}
	return o, nil
}

// Snapshot writes every cached outcome to w in the versioned,
// checksummed memo snapshot format. Safe to call while the cache serves
// traffic: cached outcomes are immutable by the deep-copy contract, so
// encoding outside the cache's lock cannot race.
func (rc *ResultCache) Snapshot(w io.Writer) error {
	return rc.c.Snapshot(w, EncodeOutcome)
}

// Restore loads a snapshot written by Snapshot into the cache and
// returns the number of entries restored. A corrupt, truncated,
// version-mismatched or undecodable snapshot returns an error with
// nothing loaded — the caller degrades to a cold cache.
func (rc *ResultCache) Restore(r io.Reader) (int, error) {
	return memo.Restore(rc.c, r, DecodeOutcome)
}
