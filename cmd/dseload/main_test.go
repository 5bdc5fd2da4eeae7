package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cli"
	"repro/internal/fleet"
	"repro/internal/runner"
	"repro/internal/serve"
)

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

func readReport(t *testing.T, path string) *Report {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep Report
	if err := json.Unmarshal(b, &rep); err != nil {
		t.Fatal(err)
	}
	return &rep
}

// TestReplayMatchesAcrossTopologies is make fleet-report in process: the
// same closed-loop replay against one dsed and against a fleet gives
// equal per-pass result digests, and both warm passes are answered
// wholly from cache.
func TestReplayMatchesAcrossTopologies(t *testing.T) {
	single := httptest.NewServer(serve.New(serve.Options{Cache: runner.NewResultCache(512), Logf: quiet}).Handler())
	defer single.Close()
	dir := t.TempDir()
	replay := func(addr, name string, extra ...string) *Report {
		path := filepath.Join(dir, name)
		args := append([]string{"-addr", addr, "-rps", "0", "-n", "12", "-passes", "2",
			"-max-errors", "0", "-min-hit-ratio", "1", "-report", path}, extra...)
		var out bytes.Buffer
		if err := run(args, &out); err != nil {
			t.Fatalf("%v: %v\n%s", args, err, out.String())
		}
		return readReport(t, path)
	}
	s := replay(single.URL, "single.json")
	f := replay(startFleet(t, 2), "fleet.json", "-compare", filepath.Join(dir, "single.json"))

	if f.FleetWorkers != 2 {
		t.Errorf("fleet report counts %d workers, want 2", f.FleetWorkers)
	}
	for _, rep := range []*Report{s, f} {
		if len(rep.PassResults) != 2 {
			t.Fatalf("%s: %d passes, want 2", rep.Target, len(rep.PassResults))
		}
		if warm := rep.PassResults[1]; warm.HitRatio != 1 || warm.CompletedRuns != 24 {
			t.Errorf("%s warm pass: hit ratio %v over %d runs, want 1 over 24", rep.Target, warm.HitRatio, warm.CompletedRuns)
		}
	}
	for i := range s.PassResults {
		if sd, fd := s.PassResults[i].ResultDigest, f.PassResults[i].ResultDigest; sd != fd {
			t.Errorf("pass %d digests differ: single %s, fleet %s", i, sd, fd)
		}
	}
}

// fakeTarget answers the job API: the n-th submission is done at once,
// with summary(n) as its summary.
func fakeTarget(t *testing.T, summary func(n int64) *serve.JobSummary) string {
	var submitted atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		serve.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		id := fmt.Sprintf("job-%06d", submitted.Add(1))
		serve.WriteJSON(w, http.StatusAccepted, serve.JobStatus{ID: id, State: serve.StateQueued})
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		var n int64
		fmt.Sscanf(r.PathValue("id"), "job-%d", &n)
		serve.WriteJSON(w, http.StatusOK, serve.JobStatus{ID: r.PathValue("id"), State: serve.StateDone, Summary: summary(n)})
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts.URL
}

// TestBrokenResultsFail: a done job without a summary is an error, and a
// spec whose quality fields change from one pass to the next is a
// determinism violation; either fails the gate (exit 3).
func TestBrokenResultsFail(t *testing.T) {
	cases := []struct {
		name    string
		summary func(n int64) *serve.JobSummary
		args    []string
		want    string
	}{
		{"no summary", func(int64) *serve.JobSummary { return nil },
			[]string{"-passes", "1", "-max-errors", "0"}, "without a summary"},
		{"quality drifts", func(n int64) *serve.JobSummary {
			return &serve.JobSummary{Requested: 2, Completed: 2, BestCost: float64(n)}
		}, []string{"-passes", "2"}, "determinism violation"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			args := append([]string{"-addr", fakeTarget(t, tc.summary), "-rps", "0", "-n", "1", "-poll", "1ms"}, tc.args...)
			var out bytes.Buffer
			if err := run(args, &out); err != cli.ErrGate || !strings.Contains(out.String(), tc.want) {
				t.Fatalf("err = %v, want cli.ErrGate with %q in:\n%s", err, tc.want, out.String())
			}
		})
	}
}

func TestFlagErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-no-such-flag"},
		{"-mix", "no-such-scenario=1"},
		{"-rps", "0"},
	} {
		var out bytes.Buffer
		if err := run(append(args, "-addr", "http://127.0.0.1:1"), &out); err != cli.ErrUsage {
			t.Errorf("%v: err = %v, want cli.ErrUsage", args, err)
		}
		if out.Len() != 0 {
			t.Errorf("%v wrote to stdout: %q", args, out.String())
		}
	}
	if err := run([]string{"-h"}, &bytes.Buffer{}); err != flag.ErrHelp {
		t.Fatalf("-h: err = %v, want flag.ErrHelp", err)
	}
}
