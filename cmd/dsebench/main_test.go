package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"repro/internal/cli"
)

// flagsOf runs the CLI with -h and returns its flags as "name\tdefault"
// lines, the -j default (the host's core count) written as NumCPU.
func flagsOf(t *testing.T) []string {
	t.Helper()
	var fs *flag.FlagSet
	orig := cli.NewFlagSet
	cli.NewFlagSet = func(name string) *flag.FlagSet {
		fs = orig(name)
		fs.SetOutput(io.Discard)
		return fs
	}
	defer func() { cli.NewFlagSet = orig }()
	if err := run([]string{"-h"}, io.Discard); err != flag.ErrHelp {
		t.Fatalf("-h: err = %v, want flag.ErrHelp", err)
	}
	var out []string
	fs.VisitAll(func(f *flag.Flag) {
		def := f.DefValue
		if f.Name == "j" && def == strconv.Itoa(runtime.NumCPU()) {
			def = "NumCPU"
		}
		out = append(out, f.Name+"\t"+def)
	})
	return out
}

// TestFlagSetIsParentsMinusSched: the flags and their defaults are those
// of the release before the shared search flags, minus the retired -sched
// (testdata/flags_golden.txt lists that release's flags).
func TestFlagSetIsParentsMinusSched(t *testing.T) {
	b, err := os.ReadFile("testdata/flags_golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, l := range strings.Split(strings.TrimRight(string(b), "\n"), "\n") {
		if !strings.HasPrefix(l, "sched\t") {
			want = append(want, l)
		}
	}
	if got := flagsOf(t); strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("flag set changed:\n--- got\n%s\n--- want\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// qualityJSON keeps a result file's params and every row field but the
// wall-time ones (wallMS, evalsPerSec, warmWallMS).
func qualityJSON(t *testing.T, raw []byte) []byte {
	t.Helper()
	var f struct {
		Params  map[string]string        `json:"params"`
		Results []map[string]interface{} `json:"results"`
	}
	if err := json.Unmarshal(raw, &f); err != nil {
		t.Fatal(err)
	}
	for _, r := range f.Results {
		delete(r, "wallMS")
		delete(r, "evalsPerSec")
		delete(r, "warmWallMS")
	}
	b, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(b, '\n')
}

// TestBenchGolden runs a batched, early-stopped SA and bandit matrix and
// compares its JSON quality fields and params with
// testdata/bench_golden.json (recorded before the shared search flags).
func TestBenchGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/bench_golden.json")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "bench.json")
	args := []string{"-scenarios", "fig2-small,layered-small", "-strategies", "sa,bandit", "-runs", "2",
		"-max-steps", "30", "-batch", "4", "-early-stop", "0.01", "-sched-slice", "4", "-j", "2", "-json", path}
	if err := run(args, io.Discard); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := qualityJSON(t, raw); !bytes.Equal(got, want) {
		t.Fatalf("bench quality changed:\n--- got\n%s--- want\n%s", got, want)
	}
}

// TestFlagErrors pins the exit-code split main relies on: an unknown flag
// is a usage error, -h asks for help, and a bad knob value fails before
// any cell runs.
func TestFlagErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-no-such-flag"}, &out); err != cli.ErrUsage {
		t.Fatalf("unknown flag: err = %v, want cli.ErrUsage", err)
	}
	if err := run([]string{"-h"}, &out); err != flag.ErrHelp {
		t.Fatalf("-h: err = %v, want flag.ErrHelp", err)
	}
	if err := run([]string{"-smoke", "-sched-slice", "-1"}, &out); err == nil || !strings.Contains(err.Error(), "schedSlice") {
		t.Fatalf("-sched-slice -1: err = %v", err)
	}
	if out.Len() != 0 {
		t.Fatalf("flag errors wrote to stdout: %q", out.String())
	}
}
