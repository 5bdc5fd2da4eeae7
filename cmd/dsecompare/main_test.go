package main

import (
	"bytes"
	"flag"
	"os"
	"regexp"
	"strings"
	"testing"

	"repro/internal/cli"
)

var update = flag.Bool("update", false, "rewrite testdata/compare_golden.txt from the current output")

const compareGoldenPath = "testdata/compare_golden.txt"

// cellSep splits a rendered table row into its cells.
var cellSep = regexp.MustCompile(`\s{2,}`)

// qualityLines keeps the run-order-deterministic part of the output: the
// header, the method table without its wall-time columns, the cache
// counters, the best-versus-best line and the Pareto archive. The speed
// ratio line is dropped, being wall time only.
func qualityLines(out string) []string {
	var lines []string
	inMethods := false
	for _, l := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		switch {
		case strings.HasPrefix(l, "method "):
			inMethods = true
		case l == "":
			inMethods = false
		case strings.HasPrefix(l, "speed ratio"):
			continue
		}
		if inMethods {
			cells := cellSep.Split(strings.TrimSpace(l), -1)
			if len(cells) > 4 {
				cells = cells[:4] // method, best_ms, avg_ms, runs
			}
			l = strings.Join(cells, " | ")
		}
		lines = append(lines, l)
	}
	return lines
}

// TestCompareGolden runs the SA-versus-GA comparison in process on a
// small budget with the result cache on, and compares every quality line
// with the checked-in golden. An intentional change to either method's
// results regenerates the file with:
//
//	go test ./cmd/dsecompare -run CompareGolden -update
func TestCompareGolden(t *testing.T) {
	var out bytes.Buffer
	args := []string{"-sa-runs", "2", "-sa-iters", "400", "-ga-runs", "1", "-ga-gens", "4", "-ga-pop", "20", "-j", "2", "-cache"}
	if err := run(args, &out); err != nil {
		t.Fatal(err)
	}
	got := qualityLines(out.String())
	if *update {
		if err := os.WriteFile(compareGoldenPath, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(compareGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimRight(string(b), "\n"), "\n")
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("comparison output changed:\n--- got\n%s\n--- want\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// TestFlagErrors pins the exit-code split main relies on: an unknown flag
// is a usage error and -h asks for help, and neither runs a batch.
func TestFlagErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-no-such-flag"}, &out); err != cli.ErrUsage {
		t.Fatalf("unknown flag: err = %v, want cli.ErrUsage", err)
	}
	if err := run([]string{"-h"}, &out); err != flag.ErrHelp {
		t.Fatalf("-h: err = %v, want flag.ErrHelp", err)
	}
	if out.Len() != 0 {
		t.Fatalf("flag errors wrote to stdout: %q", out.String())
	}
}
