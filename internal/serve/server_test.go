package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/model"
	"repro/internal/runner"
	"repro/internal/search"
)

func testServer(t *testing.T, cache *runner.ResultCache) (*Server, *httptest.Server) {
	t.Helper()
	s := New(Options{Cache: cache, MaxJobs: 2, Logf: t.Logf})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postJSON(t *testing.T, url string, body interface{}, out interface{}) *http.Response {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		defer resp.Body.Close()
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s response: %v", url, err)
		}
	}
	return resp
}

func getJSON(t *testing.T, url string, out interface{}) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("decoding %s: %v", url, err)
	}
}

func waitDone(t *testing.T, base, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		var st JobStatus
		getJSON(t, base+"/v1/jobs/"+id, &st)
		if terminal(st.State) {
			return st
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s never finished", id)
	return JobStatus{}
}

// TestSubmitAndCacheHitResubmit is the service half of the acceptance
// criterion: resubmitting an identical scenario × strategy × seed ×
// budget job is answered from the cache with bit-identical quality
// fields.
func TestSubmitAndCacheHitResubmit(t *testing.T) {
	cache := runner.NewResultCache(256)
	_, ts := testServer(t, cache)
	spec := JobSpec{Scenario: "fig2-small", Strategy: "sa", Runs: 3, MaxSteps: 8}

	var queued JobStatus
	resp := postJSON(t, ts.URL+"/v1/jobs", &spec, &queued)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d", resp.StatusCode)
	}
	cold := waitDone(t, ts.URL, queued.ID)
	if cold.State != StateDone || cold.Summary == nil {
		t.Fatalf("cold job: %+v", cold)
	}
	if cold.Summary.CacheHits != 0 {
		t.Fatalf("cold job reported cache hits: %+v", cold.Summary)
	}

	postJSON(t, ts.URL+"/v1/jobs", &spec, &queued)
	warm := waitDone(t, ts.URL, queued.ID)
	if warm.State != StateDone || warm.Summary == nil {
		t.Fatalf("warm job: %+v", warm)
	}
	if warm.Summary.CacheHits != spec.Runs {
		t.Fatalf("warm hits = %d, want %d", warm.Summary.CacheHits, spec.Runs)
	}
	c, w := cold.Summary, warm.Summary
	if c.BestCost != w.BestCost || c.BestMakespanMS != w.BestMakespanMS ||
		c.FrontSize != w.FrontSize || c.Evaluations != w.Evaluations {
		t.Fatalf("quality fields drifted:\ncold %+v\nwarm %+v", c, w)
	}
}

// TestStreamReplaysAndCloses exercises GET /jobs/{id}/stream: every run
// event arrives as one NDJSON line and the stream closes with the
// summary record.
func TestStreamReplaysAndCloses(t *testing.T) {
	_, ts := testServer(t, nil)
	var queued JobStatus
	postJSON(t, ts.URL+"/v1/jobs", &JobSpec{Scenario: "pipeline-chain-tiny", Runs: 3, MaxSteps: 4}, &queued)
	resp, err := http.Get(ts.URL + "/v1/jobs/" + queued.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	events := 0
	sawSummary := false
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Bytes()
		var final struct {
			State   string      `json:"state"`
			Summary *JobSummary `json:"summary"`
		}
		if json.Unmarshal(line, &final) == nil && final.State != "" {
			if final.State != StateDone || final.Summary == nil {
				t.Fatalf("bad final line: %s", line)
			}
			sawSummary = true
			continue
		}
		var ev RunEvent
		if err := json.Unmarshal(line, &ev); err != nil {
			t.Fatalf("bad event line %q: %v", line, err)
		}
		events++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if events != 3 || !sawSummary {
		t.Fatalf("streamed %d events, summary %v", events, sawSummary)
	}
}

// TestSyncRunDisconnectCancelsAndNothingPartialCached is the satellite
// concurrency test: a client that disconnects from POST /run mid-stream
// cancels the computation, and the truncated runs never enter the
// result cache.
func TestSyncRunDisconnectCancelsAndNothingPartialCached(t *testing.T) {
	cache := runner.NewResultCache(256)
	_, ts := testServer(t, cache)

	// A heavyweight cell: 160 tasks with an effectively unbounded
	// annealing budget, so no run can complete before the disconnect
	// below — only truncated (hence uncached) runs exist.
	spec := JobSpec{Scenario: "layered-160", Strategy: "sa", Runs: 4, Overrides: search.Overrides{SAIters: 1 << 30}}
	b, _ := json.Marshal(&spec)
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/run", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	// Give the server a moment to start the runs, then drop the
	// connection mid-computation.
	time.Sleep(100 * time.Millisecond)
	cancel()
	resp.Body.Close()

	// The server must unwind: the request context cancels the runner
	// within one search step, the truncated runs return errors, and the
	// cache stays empty. Give stragglers ample time to finish cancelling
	// before asserting.
	time.Sleep(500 * time.Millisecond)
	if n := cache.Len(); n != 0 {
		t.Fatalf("%d partial results were cached", n)
	}
	var stats struct{ Entries int }
	getJSON(t, ts.URL+"/v1/cache", &stats)
	if stats.Entries != 0 {
		t.Fatalf("cache endpoint reports %d resident entries", stats.Entries)
	}
}

// TestCancelAsyncJob covers DELETE /jobs/{id}: a running job transitions
// to canceled and keeps the partial aggregate.
func TestCancelAsyncJob(t *testing.T) {
	cache := runner.NewResultCache(256)
	_, ts := testServer(t, cache)
	spec := JobSpec{Scenario: "layered-160", Strategy: "sa", Runs: 8, Overrides: search.Overrides{SAIters: 1 << 30}}
	var queued JobStatus
	postJSON(t, ts.URL+"/v1/jobs", &spec, &queued)
	time.Sleep(50 * time.Millisecond)

	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+queued.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	st := waitDone(t, ts.URL, queued.ID)
	if st.State != StateCanceled {
		t.Fatalf("state %s, want canceled", st.State)
	}
	if n := cache.Len(); n != 0 {
		t.Fatalf("cancelled job cached %d partial results", n)
	}
}

// noProcessorSpec carries inline models that pass App/Arch.Validate but
// give the explorer nothing to run software on.
const noProcessorSpec = `{"app":{"name":"a","tasks":[{"name":"t","sw":1000,"hw":[{"clbs":10,"time":500}]}]},` +
	`"arch":{"name":"hw-only","rcs":[{"name":"rc","nclb":100,"tr":1}],"bus":{"rate":1000000}}}`

func TestBadSpecsRejected(t *testing.T) {
	_, ts := testServer(t, nil)
	cases := []string{
		`{"scenario":"no-such-scenario"}`,
		`{}`,
		`{"scenario":"fig2-small","app":{"name":"x"}}`,
		`{"scenario":"fig2-small","runz":3}`,              // unknown field
		`{"scenario":"fig2-small","strategy":"bogus"}`,    // unknown strategy
		`{"scenario":"fig2-small","batchKernel":"lanes"}`, // retired batch knob
		`{"scenario":"fig2-small","batchWorkers":2}`,      // retired batch knob
		`{"scenario":"fig2-small","sched":"ucb"}`,         // retired policy override
		`{"scenario":"fig2-small","schedSlice":-1}`,       // negative slice
		`{"scenario":"fig2-small","strategy":"bandit","schedSlice":-1}`,
		noProcessorSpec, // valid models the explorer cannot run
	}
	for _, body := range cases {
		for _, path := range []string{"/v1/jobs", "/v1/run"} {
			resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			var env errorEnvelope
			err = json.NewDecoder(resp.Body).Decode(&env)
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("spec %s accepted by %s with %d", body, path, resp.StatusCode)
			}
			if body == noProcessorSpec && (err != nil || !strings.Contains(env.Error.Message, "processor")) {
				t.Fatalf("%s rejected the processor-less spec for another reason: %+v (%v)", path, env, err)
			}
		}
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing job returned %d", resp.StatusCode)
	}
}

// TestInlineModelsBounded: an inline application one task over the bound,
// or an architecture one resource over it, is refused with a 400 before
// anything is prepared, and the server keeps serving: an inline
// motion-detection job still runs.
func TestInlineModelsBounded(t *testing.T) {
	_, ts := testServer(t, nil)
	mcfg := apps.DefaultMotionConfig()
	motion := JobSpec{App: apps.MotionDetection(mcfg), Arch: apps.MotionArch(2000, mcfg)}
	motion.SAIters = 400

	bigApp := motion
	bigApp.App = &model.App{Name: "big", Tasks: make([]model.Task, maxInlineTasks+1)}
	for i := range bigApp.App.Tasks {
		bigApp.App.Tasks[i].SW = 1
	}
	bigArch := motion
	arch := *motion.Arch
	arch.RCs = make([]model.RC, maxInlineResources+1)
	for i := range arch.RCs {
		arch.RCs[i] = model.RC{Name: "rc", NCLB: 100, TR: 1}
	}
	bigArch.Arch = &arch
	for name, spec := range map[string]*JobSpec{"application": &bigApp, "architecture": &bigArch} {
		var env errorEnvelope
		resp := postJSON(t, ts.URL+"/v1/jobs", spec, &env)
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(env.Error.Message, "inline "+name) {
			t.Fatalf("an inline %s over the bound got %d: %+v", name, resp.StatusCode, env)
		}
	}

	var queued JobStatus
	if resp := postJSON(t, ts.URL+"/v1/jobs", &motion, &queued); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("inline motion-detection spec got %d", resp.StatusCode)
	}
	if st := waitDone(t, ts.URL, queued.ID); st.State != StateDone || st.Summary == nil {
		t.Fatalf("inline motion-detection job: %+v", st)
	}
}

// TestFinishedJobsPruned pins the retention bound: a long-lived server
// keeps at most MaxFinished terminal job records, evicting the oldest.
func TestFinishedJobsPruned(t *testing.T) {
	s := New(Options{MaxJobs: 1, MaxFinished: 3, Logf: t.Logf})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	var last JobStatus
	for i := 0; i < 6; i++ {
		postJSON(t, ts.URL+"/v1/jobs", &JobSpec{Scenario: "pipeline-chain-tiny", Runs: 1, MaxSteps: 2, Seed: int64(i)}, &last)
		waitDone(t, ts.URL, last.ID)
	}
	var all []JobStatus
	getJSON(t, ts.URL+"/v1/jobs", &all)
	if len(all) > 4 { // MaxFinished finished + the one just submitted
		t.Fatalf("job registry grew to %d records", len(all))
	}
	// The most recent job survives; the oldest has been evicted.
	resp, err := http.Get(ts.URL + "/v1/jobs/job-000001")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("oldest job still resident (%d)", resp.StatusCode)
	}
	if _, ok := s.jobFor(&http.Request{}); ok {
		t.Fatal("empty id resolved")
	}
}

func TestScenarioCatalogEndpoint(t *testing.T) {
	_, ts := testServer(t, nil)
	var out []struct {
		Name   string `json:"name"`
		Family string `json:"family"`
	}
	getJSON(t, ts.URL+"/v1/scenarios", &out)
	if len(out) < 10 {
		t.Fatalf("catalog has %d entries", len(out))
	}
	seen := false
	for _, e := range out {
		if e.Name == "paper-fig2" && e.Family == "paper" {
			seen = true
		}
	}
	if !seen {
		t.Fatal("paper-fig2 missing from the catalog")
	}
}

// TestQueuedJobsRespectMaxJobs pins the bounded-concurrency contract:
// with MaxJobs=1 a second submission stays queued until the first
// finishes, and both complete.
func TestQueuedJobsRespectMaxJobs(t *testing.T) {
	s := New(Options{MaxJobs: 1, Logf: t.Logf})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	var first, second JobStatus
	postJSON(t, ts.URL+"/v1/jobs", &JobSpec{Scenario: "pipeline-chain-tiny", Runs: 4, MaxSteps: 30}, &first)
	postJSON(t, ts.URL+"/v1/jobs", &JobSpec{Scenario: "pipeline-chain-tiny", Runs: 4, MaxSteps: 30, Seed: 99}, &second)
	a := waitDone(t, ts.URL, first.ID)
	b := waitDone(t, ts.URL, second.ID)
	if a.State != StateDone || b.State != StateDone {
		t.Fatalf("states %s/%s", a.State, b.State)
	}
	var all []JobStatus
	getJSON(t, ts.URL+"/v1/jobs", &all)
	if len(all) != 2 {
		t.Fatalf("job list has %d entries", len(all))
	}
}
