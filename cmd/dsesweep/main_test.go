package main

import (
	"bytes"
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

// TestSweepGolden runs a small batched, reconfiguration-weighted sweep
// at one and two workers: both CSVs must equal testdata/sweep_golden.csv
// byte for byte (recorded before the shared search flags).
func TestSweepGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/sweep_golden.csv")
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range []string{"1", "2"} {
		csv := filepath.Join(t.TempDir(), "sweep.csv")
		args := []string{"-sizes", "800,2000", "-runs", "3", "-iters", "500", "-batch", "4", "-w-reconf", "0.5",
			"-noplot", "-csv", csv, "-j", j}
		var out bytes.Buffer
		if err := run(args, &out); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(csv)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("-j %s: sweep CSV changed:\n--- got\n%s--- want\n%s", j, got, want)
		}
	}
}

// TestTransferCreatesCache: -transfer alone sets up the result cache it
// draws its donors from.
func TestTransferCreatesCache(t *testing.T) {
	var out bytes.Buffer
	args := []string{"-sizes", "800,800", "-runs", "2", "-iters", "300", "-noplot", "-transfer", "-j", "2"}
	if err := run(args, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "result cache:") {
		t.Fatalf("-transfer ran without a result cache:\n%s", out.String())
	}
}

// TestFlagErrors: unknown flags are usage errors, bad knob values are
// rejected before anything runs.
func TestFlagErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-no-such-flag"}, &out); err != cli.ErrUsage {
		t.Fatalf("unknown flag: err = %v, want cli.ErrUsage", err)
	}
	if err := run([]string{"-sizes", "800", "-w-reconf", "NaN"}, &out); err == nil || !strings.Contains(err.Error(), "wReconf") {
		t.Fatalf("-w-reconf NaN: err = %v", err)
	}
	if out.Len() != 0 {
		t.Fatalf("failed runs wrote to stdout: %q", out.String())
	}
}
