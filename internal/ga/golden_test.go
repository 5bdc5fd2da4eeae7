package ga_test

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

	"repro/internal/ga"
	"repro/internal/objective"
	"repro/internal/scenario"
)

var update = flag.Bool("update", false, "rewrite testdata/ga_golden.txt from the current GA")

const gaGoldenPath = "testdata/ga_golden.txt"

// The pinned GA runs: the paper's instance and three medium corpus
// instances (one with several reconfiguration contexts per decode), at
// two seeds each.
var (
	gaGoldenScenarios = []string{"paper-fig2", "pipeline-jpeg", "layered-medium", "reconfig-fast-medium"}
	gaGoldenSeeds     = []int64{1, 7}
)

// gaDigest runs one GA over a corpus scenario and hashes everything the
// run decides: the best cost after every generation, the counters, the
// best evaluation and mapping, and the archived area/makespan front.
func gaDigest(t *testing.T, name string, seed int64) string {
	t.Helper()
	sc, ok := scenario.Lookup(name)
	if !ok {
		t.Fatalf("unknown scenario %q", name)
	}
	app, arch, err := sc.Instantiate()
	if err != nil {
		t.Fatal(err)
	}
	cfg := sc.SearchConfig().GA
	cfg.Population, cfg.Generations, cfg.Stall = 60, 30, 0
	cfg.Seed = seed
	cfg.FrontMetrics = []objective.Metric{objective.HWArea, objective.Makespan}
	g, err := ga.New(app, arch, cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for g.Step() {
		writeU64(h, math.Float64bits(g.BestCost()))
	}
	res, err := g.Result()
	if err != nil {
		t.Fatal(err)
	}
	writeU64(h, math.Float64bits(res.BestCost))
	fmt.Fprintf(h, "|%d|%d|%+v|%+v|", res.Generations, res.Evaluations, res.BestEval, *res.Best)
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

// TestGAGolden pins GA runs to checked-in digests, so a change to how
// genomes are decoded, scored or stored must reproduce every generation's
// best cost, the counters, the best mapping and the front bit for bit. An
// intentional change regenerates the file with:
//
//	go test ./internal/ga -run GAGolden -update
func TestGAGolden(t *testing.T) {
	var lines []string
	for _, name := range gaGoldenScenarios {
		for _, seed := range gaGoldenSeeds {
			lines = append(lines, fmt.Sprintf("%s seed%d %s", name, seed, gaDigest(t, name, seed)))
		}
	}
	if *update {
		if err := os.WriteFile(gaGoldenPath, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(gaGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSpace(string(b)), "\n")
	if len(want) != len(lines) {
		t.Fatalf("golden has %d lines, run produced %d", len(want), len(lines))
	}
	for i := range lines {
		if lines[i] != want[i] {
			t.Errorf("GA run changed:\n  got  %s\n  want %s", lines[i], want[i])
		}
	}
}
