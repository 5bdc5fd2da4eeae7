package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cli"
)

// flagsOf runs dsed with -h and returns its flags as "name\tdefault"
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

// TestFlagSetIsParentsMinusTTL: the flags and their defaults are those of
// the release before results expired by epoch, minus the retired
// -cache-ttl and -stale-for (testdata/flags_golden.txt lists that
// release's flags).
func TestFlagSetIsParentsMinusTTL(t *testing.T) {
	b, err := os.ReadFile("testdata/flags_golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, l := range strings.Split(strings.TrimRight(string(b), "\n"), "\n") {
		if !strings.HasPrefix(l, "cache-ttl\t") && !strings.HasPrefix(l, "stale-for\t") {
			want = append(want, l)
		}
	}
	if got := flagsOf(t); strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("flag set changed:\n--- got\n%s\n--- want\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// TestFlagErrors pins the exit-code split main relies on: an unknown
// flag (the retired -cache-ttl among them) is a usage error, -h asks for
// help, and neither writes to stdout.
func TestFlagErrors(t *testing.T) {
	var out bytes.Buffer
	for _, args := range [][]string{{"-no-such-flag"}, {"-cache-ttl", "1h"}} {
		if err := run(args, &out); err != cli.ErrUsage {
			t.Fatalf("%v: err = %v, want cli.ErrUsage", args, err)
		}
	}
	if err := run([]string{"-h"}, &out); err != flag.ErrHelp {
		t.Fatalf("-h: err = %v, want flag.ErrHelp", err)
	}
	if out.Len() != 0 {
		t.Fatalf("flag errors wrote to stdout: %q", out.String())
	}
}

// TestSmoke runs the self-test in process: a cold job, its cache-hit
// resubmission, a restart from the snapshot file and a metrics scrape.
func TestSmoke(t *testing.T) {
	var out bytes.Buffer
	snap := filepath.Join(t.TempDir(), "cache.snap")
	if err := run([]string{"-smoke", "-snapshot", snap}, &out); err != nil {
		t.Fatalf("smoke: %v\n%s", err, out.String())
	}
	if !strings.HasSuffix(out.String(), "dsed smoke: PASS\n") {
		t.Fatalf("smoke report does not end in PASS:\n%s", out.String())
	}
	if _, err := os.Stat(snap); err != nil {
		t.Fatalf("smoke left no snapshot: %v", err)
	}
}
