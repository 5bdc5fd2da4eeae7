package main

import (
	"bufio"
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"net/http/httptest"
	"os"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/cli"
	"repro/internal/fleet"
	"repro/internal/runner"
	"repro/internal/serve"
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

var (
	localCost  = regexp.MustCompile(`best execution time\s+: \S+ \(cost (\S+)\)`)
	remoteCost = regexp.MustCompile(`best cost\s+: (\S+) `)
)

// bestCost runs the CLI and extracts the printed best cost.
func bestCost(t *testing.T, args []string, re *regexp.Regexp) string {
	t.Helper()
	var out bytes.Buffer
	if err := run(args, &out); err != nil {
		t.Fatalf("%v: %v", args, err)
	}
	sc := bufio.NewScanner(&out)
	for sc.Scan() {
		if m := re.FindStringSubmatch(sc.Text()); m != nil {
			return m[1]
		}
	}
	t.Fatalf("%v: no best cost in output:\n%s", args, out.String())
	return ""
}

func quiet(string, ...interface{}) {}

// startFleet serves a coordinator fronting n cache-enabled workers and
// returns its URL. Each worker registers once; the hour-long heartbeat
// timeout outlives the test.
func startFleet(t *testing.T, n int) string {
	t.Helper()
	coord := fleet.NewCoordinator(fleet.Options{HeartbeatTimeout: time.Hour, Logf: quiet})
	t.Cleanup(coord.Close)
	ts := httptest.NewServer(coord.Handler())
	t.Cleanup(ts.Close)
	for i := 0; i < n; i++ {
		w := httptest.NewServer(serve.New(serve.Options{Cache: runner.NewResultCache(512), Logf: quiet}).Handler())
		t.Cleanup(w.Close)
		agent := &fleet.Agent{Coordinator: ts.URL, ID: fmt.Sprintf("w%d", i), URL: w.URL, Logf: quiet}
		if err := agent.Register(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	return ts.URL
}

// TestLocalMatchesServer: the same flags give the same best cost run
// locally, shipped to a dsed server and shipped to a fleet coordinator,
// odd values included (a zero quality, an early-stop window of zero).
func TestLocalMatchesServer(t *testing.T) {
	ts := httptest.NewServer(serve.New(serve.Options{Logf: t.Logf}).Handler())
	defer ts.Close()
	servers := [][2]string{{"server", ts.URL}, {"fleet", startFleet(t, 2)}}
	base := []string{"-motion", "-iters", "3000", "-assign=false", "-j", "2"}
	for _, extra := range [][]string{
		{"-quality", "0"},
		{"-early-stop", "0.5", "-early-stop-window", "0"},
		{"-batch", "4", "-w-area", "0.001"},
		{"-strategy", "bandit", "-sched-slice", "4"},
	} {
		args := append(append([]string(nil), base...), extra...)
		local := bestCost(t, args, localCost)
		for _, server := range servers {
			remote := bestCost(t, append(args[:len(args):len(args)], "-server", server[1]), remoteCost)
			if local != remote {
				t.Errorf("%v: local best cost %s, %s %s", extra, local, server[0], remote)
			}
		}
	}
}

// TestBadKnobsRejected: a non-finite weight or a negative slice fails
// before anything runs, locally and with -server alike.
func TestBadKnobsRejected(t *testing.T) {
	for _, extra := range [][]string{
		{"-w-area", "NaN"},
		{"-quality", "Inf"},
		{"-early-stop", "NaN"},
		{"-strategy", "bandit", "-sched-slice", "-3"},
	} {
		for _, server := range []string{"", "http://127.0.0.1:1"} {
			args := append([]string{"-motion", "-iters", "100", "-server", server}, extra...)
			var out bytes.Buffer
			if err := run(args, &out); err == nil || !strings.Contains(err.Error(), "search:") {
				t.Errorf("%v: err = %v, want a knob error", args, err)
			}
			if out.Len() != 0 {
				t.Errorf("%v: wrote output before failing:\n%s", args, out.String())
			}
		}
	}
}
