package dse_test

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"hash"
	"math"
	"os"
	"strings"
	"testing"

	"repro/dse"
)

var update = flag.Bool("update", false, "rewrite testdata/explore_many_golden.txt from the current facade")

const exploreManyGoldenPath = "testdata/explore_many_golden.txt"

func writeU64(h hash.Hash, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	h.Write(b[:])
}

func writeFront(h hash.Hash, f *dse.Front) {
	if f == nil {
		fmt.Fprint(h, "nofront|")
		return
	}
	for _, p := range f.Points() {
		writeU64(h, uint64(int64(p.ID)))
		for _, v := range p.V {
			writeU64(h, math.Float64bits(v))
		}
	}
	fmt.Fprint(h, "|")
}

// multiDigest runs one facade batch and hashes what it decides: every
// run's evaluation, best mapping, deadline verdict and front in run
// order, then the aggregate's best run and seed, deadline count,
// makespan summary and merged front. Telemetry (cost, evaluation and
// move counters) stays out, so the digest pins results, not reporting.
func multiDigest(t *testing.T, batch func(dse.RunnerOptions) (*dse.MultiResult, error), workers int) string {
	t.Helper()
	h := sha256.New()
	agg, err := batch(dse.RunnerOptions{
		Runs: 6, Workers: workers, BaseSeed: 5,
		OnResult: func(r dse.RunResult) {
			fmt.Fprintf(h, "run %d seed %d|%+v|%v|%v|", r.Run, r.Seed, r.Outcome.Eval, *r.Outcome.Best, r.Outcome.MetDeadline)
			writeFront(h, r.Outcome.Front)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ms := agg.MakespanMS
	fmt.Fprintf(h, "agg %d %d %d %d|", agg.Completed, agg.BestRun, agg.BestSeed, agg.DeadlineMet)
	for _, v := range []float64{ms.Mean(), ms.Min(), ms.Max(), ms.Median(), ms.Quantile(0.95)} {
		writeU64(h, math.Float64bits(v))
	}
	writeU64(h, uint64(ms.N()))
	writeFront(h, agg.Front)
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestExploreManyGolden pins the multi-run facade (ExploreMany and
// ExploreManyGA on the motion benchmark, serial and batched annealing,
// one and three workers) to checked-in digests, so a change to the run
// driver behind either entry point has to reproduce every run and the
// aggregate bit for bit. An intentional result change regenerates the
// file with:
//
//	go test ./dse -run ExploreManyGolden -update
func TestExploreManyGolden(t *testing.T) {
	app := dse.MotionDetection()
	arch := dse.MotionArch(2000)
	front := []dse.Metric{dse.MetricHWArea, dse.MetricMakespan}
	ctx := context.Background()

	var lines []string
	for _, b := range []int{0, 8} {
		opts := dse.DefaultOptions()
		opts.MaxIters = 2000
		opts.Deadline = dse.MotionDeadline
		opts.FrontMetrics = front
		opts.Batch = b
		for _, j := range []int{1, 3} {
			d := multiDigest(t, func(ro dse.RunnerOptions) (*dse.MultiResult, error) {
				return dse.ExploreMany(ctx, app, arch, opts, ro)
			}, j)
			lines = append(lines, fmt.Sprintf("sa batch%d j%d %s", b, j, d))
		}
	}
	gaOpts := dse.DefaultGAOptions()
	gaOpts.Population = 30
	gaOpts.Generations = 8
	gaOpts.FrontMetrics = front
	for _, j := range []int{1, 3} {
		d := multiDigest(t, func(ro dse.RunnerOptions) (*dse.MultiResult, error) {
			return dse.ExploreManyGA(ctx, app, arch, gaOpts, dse.MotionDeadline, ro)
		}, j)
		lines = append(lines, fmt.Sprintf("ga j%d %s", j, d))
	}

	if *update {
		if err := os.WriteFile(exploreManyGoldenPath, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(exploreManyGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSpace(string(b)), "\n")
	if len(want) != len(lines) {
		t.Fatalf("golden has %d lines, run produced %d", len(want), len(lines))
	}
	for i := range lines {
		if lines[i] != want[i] {
			t.Errorf("facade results changed:\n  got  %s\n  want %s", lines[i], want[i])
		}
	}
}
