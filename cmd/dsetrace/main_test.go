package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"strings"
	"testing"

	"repro/internal/cli"
)

// flagsOf runs the CLI with -h and returns its flags as "name\tdefault"
// lines.
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
	fs.VisitAll(func(f *flag.Flag) { out = append(out, f.Name+"\t"+f.DefValue) })
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

// TestSchedulerTable: a composite trace reports its kind's policy — the
// bandit's ucb at the requested slice, the portfolio's rr — and a
// negative slice is rejected before anything runs.
func TestSchedulerTable(t *testing.T) {
	for _, c := range []struct {
		args []string
		head string
	}{
		{[]string{"-strategy", "bandit", "-sched-slice", "4"}, "scheduler policy ucb, slice 4 steps"},
		{[]string{"-strategy", "portfolio"}, "scheduler policy rr —"},
	} {
		var out bytes.Buffer
		if err := run(append([]string{"-iters", "300", "-max-steps", "12"}, c.args...), &out); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(out.String(), c.head) {
			t.Fatalf("%v: no %q in\n%s", c.args, c.head, out.String())
		}
	}
	var out bytes.Buffer
	if err := run([]string{"-strategy", "bandit", "-sched-slice", "-3"}, &out); err == nil || !strings.Contains(err.Error(), "schedSlice") {
		t.Fatalf("-sched-slice -3: err = %v", err)
	}
}
