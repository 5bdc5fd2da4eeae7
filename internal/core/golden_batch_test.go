package core_test

import (
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"hash"
	"math"
	"os"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/objective"
	"repro/internal/scenario"
)

var update = flag.Bool("update", false, "rewrite testdata/batch_golden.txt from the current batch scorer")

const batchGoldenPath = "testdata/batch_golden.txt"

// The pinned batched runs: two corpus instances the auto evaluator
// resolves to full rebuilds and two it resolves to the incremental path,
// each at a narrow, the benchmark's and a wide batch width.
var (
	batchGoldenScenarios = []string{"paper-fig2", "layered-medium", "layered-large", "forkjoin-large"}
	batchGoldenWidths    = []int{2, 8, 64}
)

// batchDigest runs one batched exploration of a corpus scenario on the
// given evaluation path and hashes everything the run decides: the trace
// stream (cost, makespan, accept verdict, move kind per iteration), the
// best evaluation, the annealer and per-kind move statistics, and the
// in-run area/makespan front with its offer IDs.
func batchDigest(t *testing.T, name string, width int, mode core.EvalMode) string {
	t.Helper()
	sc, ok := scenario.Lookup(name)
	if !ok {
		t.Fatalf("unknown scenario %q", name)
	}
	app, arch, err := sc.Instantiate()
	if err != nil {
		t.Fatal(err)
	}
	cfg := sc.SearchConfig().SA
	cfg.Seed = 7
	cfg.Batch = width
	cfg.EvalMode = mode
	cfg.FrontMetrics = []objective.Metric{objective.HWArea, objective.Makespan}
	h := sha256.New()
	cfg.Trace = func(p core.TracePoint) {
		writeU64(h, math.Float64bits(p.Cost))
		writeU64(h, uint64(p.Makespan))
		acc := uint64(0)
		if p.Accepted {
			acc = 1
		}
		writeU64(h, acc)
		writeU64(h, uint64(int64(p.MoveKind)))
	}
	res, err := core.Explore(app, arch, cfg)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(h, "|%+v|%+v|%+v|", res.BestEval, res.Stats, res.MoveStats)
	for _, p := range res.Front.Points() {
		writeU64(h, uint64(int64(p.ID)))
		for _, v := range p.V {
			writeU64(h, math.Float64bits(v))
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

func writeU64(h hash.Hash, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	h.Write(b[:])
}

// TestBatchedTrajectoryGolden pins batched annealing to checked-in
// digests: a batched run must be a pure function of (seed, width), so
// any change to how a speculated round is scored has to reproduce every
// iteration, statistic and front point bit for bit. Both evaluation
// paths must reproduce the same digest. An intentional trajectory change
// regenerates the file with:
//
//	go test ./internal/core -run BatchedTrajectoryGolden -update
func TestBatchedTrajectoryGolden(t *testing.T) {
	var lines []string
	for _, name := range batchGoldenScenarios {
		for _, w := range batchGoldenWidths {
			full := batchDigest(t, name, w, core.EvalFull)
			inc := batchDigest(t, name, w, core.EvalIncremental)
			if full != inc {
				t.Errorf("%s/batch%d: evaluation paths disagree: full %s, incremental %s", name, w, full, inc)
			}
			lines = append(lines, fmt.Sprintf("%s batch%d %s", name, w, full))
		}
	}
	if *update {
		if err := os.WriteFile(batchGoldenPath, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(batchGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSpace(string(b)), "\n")
	if len(want) != len(lines) {
		t.Fatalf("golden has %d lines, run produced %d", len(want), len(lines))
	}
	for i := range lines {
		if lines[i] != want[i] {
			t.Errorf("batched trajectory changed:\n  got  %s\n  want %s", lines[i], want[i])
		}
	}
}
