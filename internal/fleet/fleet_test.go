// Fault-injection tests for the fleet: an in-process coordinator
// fronting three in-process dsed workers over httptest, exercising the
// full register/heartbeat/dispatch/watch loop plus the two failure
// modes that matter — a worker killed mid-job (re-queue, bit-identical
// completion) and a worker drained gracefully (zero failed requests).
// All of it runs under -race in CI.
package fleet_test

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/dse"
	"repro/internal/fleet"
	"repro/internal/memo"
	"repro/internal/runner"
	"repro/internal/serve"
)

// safeLogf returns a t.Logf that goes quiet once the test finishes, so
// stray coordinator/agent goroutines cannot log into a dead test. Call
// it before starting any servers: its cleanup (registered first) then
// runs last.
func safeLogf(t *testing.T) func(string, ...interface{}) {
	var mu sync.Mutex
	done := false
	t.Cleanup(func() { mu.Lock(); done = true; mu.Unlock() })
	return func(format string, args ...interface{}) {
		mu.Lock()
		defer mu.Unlock()
		if !done {
			t.Logf(format, args...)
		}
	}
}

// testFleet is an in-process coordinator plus its workers.
type testFleet struct {
	coord   *fleet.Coordinator
	coordTS *httptest.Server
	workers []*testWorker
	logf    func(string, ...interface{})
}

// testWorker is one in-process dsed worker with its membership agent.
type testWorker struct {
	id     string
	srv    *serve.Server
	ts     *httptest.Server
	agent  *fleet.Agent
	cancel context.CancelFunc
	done   chan struct{}
	killed bool
}

// kill simulates a crash: heartbeats stop and the HTTP listener dies,
// with no drain and no deregistration.
func (w *testWorker) kill() {
	if w.killed {
		return
	}
	w.killed = true
	w.cancel()
	<-w.done
	w.ts.CloseClientConnections()
	w.ts.Close()
}

// drain simulates the SIGTERM path in cmd/dsed: refuse new submissions
// locally, deregister from the coordinator, keep heartbeating while
// in-flight jobs finish.
func (w *testWorker) drain(t *testing.T) {
	t.Helper()
	w.srv.Drain()
	if err := w.agent.Deregister(context.Background()); err != nil {
		t.Fatalf("deregister %s: %v", w.id, err)
	}
}

// startFleet boots a coordinator with test-speed timings and n workers,
// and blocks until every worker is registered on the ring.
func startFleet(t *testing.T, n int) *testFleet {
	t.Helper()
	logf := safeLogf(t)
	coord := fleet.NewCoordinator(fleet.Options{
		HeartbeatTimeout: 250 * time.Millisecond,
		SweepInterval:    25 * time.Millisecond,
		Logf:             logf,
	})
	t.Cleanup(coord.Close)
	coordTS := httptest.NewServer(coord.Handler())
	t.Cleanup(coordTS.Close)

	f := &testFleet{coord: coord, coordTS: coordTS, logf: logf}
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("w%d", i)
		srv := serve.New(serve.Options{Cache: runner.NewResultCache(512), MaxJobs: 4, Logf: logf})
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		agent := &fleet.Agent{
			Coordinator: coordTS.URL, ID: id, URL: ts.URL,
			Interval: 25 * time.Millisecond, Logf: logf,
		}
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan struct{})
		go func() { defer close(done); agent.Run(ctx) }()
		t.Cleanup(func() { cancel(); <-done })
		f.workers = append(f.workers, &testWorker{
			id: id, srv: srv, ts: ts, agent: agent, cancel: cancel, done: done,
		})
	}

	deadline := time.Now().Add(10 * time.Second)
	for len(f.coord.Workers()) < n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d workers registered", len(f.coord.Workers()), n)
		}
		time.Sleep(10 * time.Millisecond)
	}
	return f
}

func (f *testFleet) worker(id string) *testWorker {
	for _, w := range f.workers {
		if w.id == id {
			return w
		}
	}
	return nil
}

// qualityOf flattens the deterministic quality fields of a summary —
// the bit-identity comparand (delivery fields like CacheHits and WallMS
// excluded by construction).
func qualityOf(s *dse.JobSummary) string {
	return fmt.Sprintf("cost=%v run=%d seed=%d makespan=%v mean=%v front=%d met=%d evals=%d",
		s.BestCost, s.BestRun, s.BestSeed, s.BestMakespanMS, s.MeanMakespanMS,
		s.FrontSize, s.DeadlineMet, s.Evaluations)
}

// runAll submits every spec and waits each to a terminal state.
func runAll(ctx context.Context, t *testing.T, c *dse.Client, specs []dse.JobSpec) []*dse.JobStatus {
	t.Helper()
	out := make([]*dse.JobStatus, len(specs))
	ids := make([]string, len(specs))
	for i, sp := range specs {
		st, err := c.SubmitJob(ctx, sp)
		if err != nil {
			t.Fatalf("submit spec %d: %v", i, err)
		}
		ids[i] = st.ID
	}
	for i, id := range ids {
		st, err := c.WaitJob(ctx, id, 10*time.Millisecond)
		if err != nil {
			t.Fatalf("wait %s: %v", id, err)
		}
		out[i] = st
	}
	return out
}

// smallCorpus is a mixed-scenario spec set cheap enough to run dozens
// of times in a -race test.
func smallCorpus(seeds int) []dse.JobSpec {
	var specs []dse.JobSpec
	for _, scen := range []string{"fig2-small", "pipeline-fft-small", "forkjoin-tiny"} {
		for s := 1; s <= seeds; s++ {
			specs = append(specs, dse.JobSpec{
				Scenario: scen, Strategy: "sa", Runs: 2, MaxSteps: 8, Seed: int64(s),
			})
		}
	}
	return specs
}

// TestFleetBitIdenticalToSingle proves the headline invariant: a fleet
// of three sharded workers returns byte-for-byte the same quality
// fields as one standalone dsed for an identical spec corpus, and a
// resubmitted spec routes back to the shard that computed it (a fully
// warm cache hit).
func TestFleetBitIdenticalToSingle(t *testing.T) {
	f := startFleet(t, 3)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	fleetClient := dse.NewClient(f.coordTS.URL)

	single := serve.New(serve.Options{Cache: runner.NewResultCache(512), MaxJobs: 4, Logf: f.logf})
	singleTS := httptest.NewServer(single.Handler())
	t.Cleanup(singleTS.Close)
	singleClient := dse.NewClient(singleTS.URL)

	specs := smallCorpus(3)
	fleetRes := runAll(ctx, t, fleetClient, specs)
	singleRes := runAll(ctx, t, singleClient, specs)

	assigned := map[string]bool{}
	for i := range specs {
		if fleetRes[i].State != dse.JobDone || singleRes[i].State != dse.JobDone {
			t.Fatalf("spec %d: fleet=%s single=%s", i, fleetRes[i].State, singleRes[i].State)
		}
		fq, sq := qualityOf(fleetRes[i].Summary), qualityOf(singleRes[i].Summary)
		if fq != sq {
			t.Errorf("spec %d (%s seed %d) not bit-identical:\nfleet:  %s\nsingle: %s",
				i, specs[i].Scenario, specs[i].Seed, fq, sq)
		}
		assigned[f.coord.Assignment(fleetRes[i].ID)] = true
	}
	if len(assigned) < 2 {
		t.Errorf("corpus landed on %d worker(s), want the ring to spread it", len(assigned))
	}

	// Resubmission routes to the same shard by ring key, so every run is
	// a warm hit.
	rerun := runAll(ctx, t, fleetClient, specs[:3])
	for i, st := range rerun {
		if st.State != dse.JobDone {
			t.Fatalf("rerun %d: %s", i, st.State)
		}
		if st.Summary.CacheHits != st.Summary.Completed {
			t.Errorf("rerun %d: %d/%d warm hits — fingerprint routing broken",
				i, st.Summary.CacheHits, st.Summary.Completed)
		}
		if q := qualityOf(st.Summary); q != qualityOf(fleetRes[i].Summary) {
			t.Errorf("rerun %d quality drifted:\nwas: %s\nnow: %s", i, qualityOf(fleetRes[i].Summary), q)
		}
	}
}

// TestFleetWorkerKillRequeues is the crash fault injection: a worker is
// killed mid-job (listener closed, heartbeats stopped, no drain), and
// the coordinator must declare it dead, re-queue the job to a survivor,
// and deliver a completion bit-identical to a standalone control run.
func TestFleetWorkerKillRequeues(t *testing.T) {
	f := startFleet(t, 3)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	client := dse.NewClient(f.coordTS.URL)

	// Slow enough (hundreds of ms even without -race) that the kill lands
	// while the job runs.
	spec := dse.JobSpec{Scenario: "layered-xl", Strategy: "sa", Runs: 2, MaxSteps: 600, Seed: 42}
	st, err := client.SubmitJob(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}

	var victim string
	deadline := time.Now().Add(10 * time.Second)
	for victim == "" {
		if time.Now().After(deadline) {
			t.Fatal("job never assigned to a worker")
		}
		victim = f.coord.Assignment(st.ID)
		time.Sleep(5 * time.Millisecond)
	}
	w := f.worker(victim)
	if w == nil {
		t.Fatalf("unknown assignment %q", victim)
	}
	t.Logf("killing %s mid-job", victim)
	w.kill()

	final, err := client.WaitJob(ctx, st.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != dse.JobDone {
		t.Fatalf("job after worker kill: %s (%s)", final.State, final.Error)
	}
	if got := f.coord.Requeues(); got < 1 {
		t.Errorf("Requeues() = %d, want >= 1 after killing the owner", got)
	}
	if survivor := f.coord.Assignment(st.ID); survivor == victim || survivor == "" {
		t.Errorf("job finished on %q, want a survivor other than killed %q", survivor, victim)
	}
	for _, id := range f.coord.Workers() {
		if id == victim {
			t.Errorf("killed worker %s still registered", victim)
		}
	}

	// Control: the same spec on a fresh standalone server must agree
	// byte-for-byte — the re-queued recomputation changed nothing.
	single := serve.New(serve.Options{Cache: runner.NewResultCache(64), MaxJobs: 2, Logf: f.logf})
	singleTS := httptest.NewServer(single.Handler())
	t.Cleanup(singleTS.Close)
	control := runAll(ctx, t, dse.NewClient(singleTS.URL), []dse.JobSpec{spec})[0]
	if fq, cq := qualityOf(final.Summary), qualityOf(control.Summary); fq != cq {
		t.Errorf("re-queued result not bit-identical to control:\nfleet:   %s\ncontrol: %s", fq, cq)
	}
}

// TestFleetDrainZeroFailures is the graceful-shutdown fault injection:
// one worker drains mid-stream (local Drain + deregister, exactly the
// cmd/dsed SIGTERM sequence) while a client keeps submitting. Every
// request must succeed — drain may slow jobs down, never fail them —
// and no post-drain job may land on the drained worker.
func TestFleetDrainZeroFailures(t *testing.T) {
	f := startFleet(t, 3)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	client := dse.NewClient(f.coordTS.URL)

	specs := smallCorpus(4)
	pre := runAll(ctx, t, client, specs[:len(specs)/2])

	drained := f.workers[0]
	drained.drain(t)

	post := runAll(ctx, t, client, specs[len(specs)/2:])

	for i, st := range append(pre, post...) {
		if st.State != dse.JobDone {
			t.Errorf("job %d finished %s (%s) — drain must cause zero failures", i, st.State, st.Error)
		}
	}
	for _, st := range post {
		if owner := f.coord.Assignment(st.ID); owner == drained.id {
			t.Errorf("post-drain job %s routed to draining worker %s", st.ID, drained.id)
		}
	}

	// The drained worker must still be visible as draining (it keeps
	// heartbeating), and direct submission to it must be refused with the
	// stable "draining" code.
	found := false
	for _, ws := range fleetWorkers(t, f.coordTS.URL) {
		if ws.ID == drained.id {
			found = true
			if ws.State != "draining" {
				t.Errorf("worker %s state %q, want draining", ws.ID, ws.State)
			}
		}
	}
	if !found {
		t.Errorf("drained worker %s missing from /v1/workers", drained.id)
	}
	resp, err := http.Post(drained.ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"scenario":"fig2-small"}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(body), serve.CodeDraining) {
		t.Errorf("direct submit to draining worker = %d %s, want 503 with code %q",
			resp.StatusCode, body, serve.CodeDraining)
	}
}

// fleetWorkers reads GET /v1/workers via the public client.
func fleetWorkers(t *testing.T, base string) []dse.WorkerInfo {
	t.Helper()
	ws, err := dse.NewClient(base).Workers(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return ws
}

// TestCoordinatorQueuesUntilWorkerJoins pins the empty-ring behavior: a
// job submitted to a worker-less coordinator stays queued (not failed)
// and dispatches the moment the first worker registers.
func TestCoordinatorQueuesUntilWorkerJoins(t *testing.T) {
	logf := safeLogf(t)
	coord := fleet.NewCoordinator(fleet.Options{
		HeartbeatTimeout: 250 * time.Millisecond,
		SweepInterval:    25 * time.Millisecond,
		Logf:             logf,
	})
	t.Cleanup(coord.Close)
	coordTS := httptest.NewServer(coord.Handler())
	t.Cleanup(coordTS.Close)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	client := dse.NewClient(coordTS.URL)

	st, err := client.SubmitJob(ctx, dse.JobSpec{Scenario: "fig2-small", Strategy: "sa", Runs: 2, MaxSteps: 8, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond)
	if cur, err := client.Job(ctx, st.ID); err != nil || cur.State != dse.JobQueued {
		t.Fatalf("job on empty fleet: state=%v err=%v, want queued", cur.State, err)
	}

	srv := serve.New(serve.Options{Cache: runner.NewResultCache(64), MaxJobs: 2, Logf: logf})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	agent := &fleet.Agent{Coordinator: coordTS.URL, ID: "late", URL: ts.URL, Interval: 25 * time.Millisecond, Logf: logf}
	actx, acancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); agent.Run(actx) }()
	t.Cleanup(func() { acancel(); <-done })

	final, err := client.WaitJob(ctx, st.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != dse.JobDone {
		t.Fatalf("job after late join: %s (%s)", final.State, final.Error)
	}
}

// TestFleetCacheAndMetricsAggregation smoke-tests the fleet ops
// surface: /v1/cache sums worker counters into a client-decodable
// shape, each total equal to the sum over its per-worker breakdown, and
// /v1/metrics exposes the fleet gauges.
func TestFleetCacheAndMetricsAggregation(t *testing.T) {
	f := startFleet(t, 3)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	client := dse.NewClient(f.coordTS.URL)

	specs := smallCorpus(1)
	runAll(ctx, t, client, specs)
	runAll(ctx, t, client, specs) // second pass: warm hits

	info, err := client.CacheStats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !info.Enabled || info.Hits == 0 {
		t.Errorf("fleet cache stats enabled=%v hits=%d, want enabled with warm hits", info.Enabled, info.Hits)
	}
	// Every fleet total is the sum of the per-worker replies it carries.
	resp, err := http.Get(f.coordTS.URL + "/v1/cache")
	if err != nil {
		t.Fatal(err)
	}
	var fleetInfo fleet.CacheInfo
	err = json.NewDecoder(resp.Body).Decode(&fleetInfo)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(fleetInfo.Workers) != 3 {
		t.Fatalf("fleet cache lists %d workers, want 3", len(fleetInfo.Workers))
	}
	var sum memo.ShardStats
	capacity := 0
	for _, w := range fleetInfo.Workers {
		sum.Hits += w.Hits
		sum.Misses += w.Misses
		sum.Shared += w.Shared
		sum.Evictions += w.Evictions
		sum.Entries += w.Entries
		capacity += w.Capacity
	}
	if fleetInfo.ShardStats != sum || fleetInfo.Capacity != capacity {
		t.Errorf("fleet totals %+v capacity %d, want the workers' sum %+v capacity %d",
			fleetInfo.ShardStats, fleetInfo.Capacity, sum, capacity)
	}

	resp, err = http.Get(f.coordTS.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, metric := range []string{"dse_fleet_workers", "dse_fleet_jobs", "dse_fleet_requeues_total", "dse_fleet_dispatch_errors_total"} {
		if !strings.Contains(string(body), metric) {
			t.Errorf("/v1/metrics missing %s", metric)
		}
	}
}
