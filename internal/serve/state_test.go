package serve

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/runner"
)

// TestStateStringsPinned pins the /v1 wire vocabulary: the five job
// states and the draining error code are API surface that dse.Client,
// the fleet coordinator, and external dashboards all match on string
// value. Renaming any of these is a breaking change.
func TestStateStringsPinned(t *testing.T) {
	pins := map[string]string{
		StateQueued: "queued", StateRunning: "running", StateDone: "done",
		StateFailed: "failed", StateCanceled: "canceled", CodeDraining: "draining",
	}
	for got, want := range pins {
		if got != want {
			t.Errorf("pinned wire string changed: got %q, want %q", got, want)
		}
	}
}

// TestTerminality is the truth table of terminal(): exactly the three
// end states are final. The coordinator's re-queue logic relies on it
// (only non-terminal jobs move off a dead worker).
func TestTerminality(t *testing.T) {
	cases := []struct {
		state string
		want  bool
	}{
		{StateQueued, false},
		{StateRunning, false},
		{StateDone, true},
		{StateFailed, true},
		{StateCanceled, true},
		{"", false},
		{"bogus", false},
	}
	for _, tc := range cases {
		if got := terminal(tc.state); got != tc.want {
			t.Errorf("terminal(%q) = %v, want %v", tc.state, got, tc.want)
		}
	}
}

// TestSetStateTransitions drives the job state machine table-style and
// checks each transition stamps exactly the timestamps the wire shape
// promises: Started on running, Finished on every terminal state,
// neither on queued.
func TestSetStateTransitions(t *testing.T) {
	cases := []struct {
		name         string
		path         []string
		wantStarted  bool
		wantFinished bool
	}{
		{"queued only", nil, false, false},
		{"queued->running", []string{StateRunning}, true, false},
		{"run to done", []string{StateRunning, StateDone}, true, true},
		{"run to failed", []string{StateRunning, StateFailed}, true, true},
		{"run to canceled", []string{StateRunning, StateCanceled}, true, true},
		{"canceled while queued", []string{StateCanceled}, false, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			j := &job{status: JobStatus{ID: "t", State: StateQueued, Submitted: time.Now().UTC()}}
			for _, s := range tc.path {
				j.setState(s, time.Now().UTC())
			}
			st := j.snapshot()
			wantState := StateQueued
			if len(tc.path) > 0 {
				wantState = tc.path[len(tc.path)-1]
			}
			if st.State != wantState {
				t.Errorf("state = %q, want %q", st.State, wantState)
			}
			if got := st.Started != nil; got != tc.wantStarted {
				t.Errorf("Started set = %v, want %v", got, tc.wantStarted)
			}
			if got := st.Finished != nil; got != tc.wantFinished {
				t.Errorf("Finished set = %v, want %v", got, tc.wantFinished)
			}
			if terminal(st.State) && st.Finished == nil {
				t.Error("terminal state without Finished timestamp")
			}
		})
	}
}

// TestJobStateSequenceOverWire runs a real job through /v1 and checks
// the client-observable state sequence is a prefix-closed walk of
// queued -> running -> done with monotone timestamps.
func TestJobStateSequenceOverWire(t *testing.T) {
	_, ts := testServer(t, runner.NewResultCache(64))
	var st JobStatus
	postJSON(t, ts.URL+"/v1/jobs", JobSpec{Scenario: "fig2-small", Strategy: "sa", Runs: 2, MaxSteps: 8, Seed: 3}, &st)
	if st.State != StateQueued {
		t.Fatalf("submit returned state %q, want %q", st.State, StateQueued)
	}
	rank := map[string]int{StateQueued: 0, StateRunning: 1, StateDone: 2}
	last := 0
	deadline := time.Now().Add(30 * time.Second)
	for {
		var cur JobStatus
		resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.NewDecoder(resp.Body).Decode(&cur); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		r, known := rank[cur.State]
		if !known {
			t.Fatalf("unexpected state %q", cur.State)
		}
		if r < last {
			t.Fatalf("state went backwards to %q", cur.State)
		}
		last = r
		if cur.State == StateDone {
			if cur.Started == nil || cur.Finished == nil || cur.Finished.Before(*cur.Started) {
				t.Fatalf("done job timestamps inconsistent: started=%v finished=%v", cur.Started, cur.Finished)
			}
			if cur.Summary == nil {
				t.Fatal("done job without summary")
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %q", cur.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestDrainRefusesSubmissionsOnly pins the graceful-drain contract: a
// draining server 503s new work (both endpoints, with the stable
// "draining" code and a Retry-After hint) while read endpoints and
// already-accepted jobs keep working, and WaitIdle returns once the
// backlog empties.
func TestDrainRefusesSubmissionsOnly(t *testing.T) {
	s, ts := testServer(t, runner.NewResultCache(64))

	var st JobStatus
	postJSON(t, ts.URL+"/v1/jobs", JobSpec{Scenario: "fig2-small", Strategy: "sa", Runs: 2, MaxSteps: 8, Seed: 5}, &st)

	s.Drain()
	if !s.Draining() {
		t.Fatal("Draining() false after Drain()")
	}
	s.Drain() // idempotent

	for _, path := range []string{"/v1/jobs", "/v1/run"} {
		resp, err := http.Post(ts.URL+path, "application/json",
			strings.NewReader(`{"scenario":"fig2-small","strategy":"sa","runs":1,"maxSteps":4}`))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("POST %s while draining = %d, want 503", path, resp.StatusCode)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Errorf("POST %s draining refusal missing Retry-After", path)
		}
		var env errorEnvelope
		if err := json.Unmarshal(body, &env); err != nil || env.Error.Code != CodeDraining {
			t.Errorf("POST %s draining envelope = %s, want code %q", path, body, CodeDraining)
		}
	}

	// Reads still answer while draining.
	for _, path := range []string{"/v1/healthz", "/v1/jobs", "/v1/jobs/" + st.ID, "/v1/metrics", "/v1/cache", "/v1/scenarios"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s while draining = %d, want 200", path, resp.StatusCode)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.WaitIdle(ctx); err != nil {
		t.Fatalf("WaitIdle: %v (active=%d)", err, s.ActiveJobs())
	}
	if n := s.ActiveJobs(); n != 0 {
		t.Fatalf("ActiveJobs() = %d after WaitIdle", n)
	}
	var final JobStatus
	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&final); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if final.State != StateDone {
		t.Fatalf("in-flight job finished %q during drain, want %q", final.State, StateDone)
	}
}

// TestWaitIdleHonorsContext pins that WaitIdle gives up when its
// context expires while work is still active — the cmd/dsed drain
// timeout path.
func TestWaitIdleHonorsContext(t *testing.T) {
	s, ts := testServer(t, nil)
	var st JobStatus
	// A job slow enough to outlive the WaitIdle deadline below.
	postJSON(t, ts.URL+"/v1/jobs", JobSpec{Scenario: "layered-large", Strategy: "sa", Runs: 2, MaxSteps: 200, Seed: 9}, &st)

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := s.WaitIdle(ctx); err == nil {
		t.Fatal("WaitIdle returned nil with a job still active")
	}
}

// TestDrainCoversRunStreams pins that a POST /v1/run job is a job like
// any other: ActiveJobs counts it while it streams, and WaitIdle after
// Drain returns only once it has finished, so a draining worker never
// cuts a relayed stream short.
func TestDrainCoversRunStreams(t *testing.T) {
	s, ts := testServer(t, nil)
	resp, err := http.Post(ts.URL+"/v1/run", "application/json",
		strings.NewReader(`{"scenario":"layered-xl","strategy":"sa","runs":2,"maxSteps":600,"seed":42}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if n := s.ActiveJobs(); n != 1 {
		t.Fatalf("ActiveJobs() = %d while a /v1/run streams, want 1", n)
	}

	s.Drain()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := s.WaitIdle(ctx); err != nil {
		t.Fatalf("WaitIdle: %v (active=%d)", err, s.ActiveJobs())
	}
	idle := time.Now()

	var all []JobStatus
	getJSON(t, ts.URL+"/v1/jobs", &all)
	if len(all) != 1 || all[0].State != StateDone || all[0].Finished == nil || all[0].Finished.After(idle) {
		t.Fatalf("WaitIdle returned at %v before the /v1/run job finished: %+v", idle, all)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(body)), "\n")
	var final struct {
		State   string      `json:"state"`
		Summary *JobSummary `json:"summary"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &final); err != nil {
		t.Fatal(err)
	}
	if len(lines) != 3 || final.State != StateDone || final.Summary == nil || final.Summary.Completed != 2 {
		t.Fatalf("stream = %q, want two events and a done line with a 2-run summary", lines)
	}
}
