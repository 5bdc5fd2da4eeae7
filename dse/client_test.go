package dse

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/runner"
	"repro/internal/serve"
)

func testService(t *testing.T) *Client {
	t.Helper()
	srv := serve.New(serve.Options{
		Cache: runner.NewResultCache(128, 0),
		Logf:  t.Logf,
	})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return NewClient(ts.URL)
}

func TestClientJobLifecycle(t *testing.T) {
	c := testService(t)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := c.Health(ctx); err != nil {
		t.Fatal(err)
	}
	spec := JobSpec{Scenario: "pipeline-chain-tiny", Runs: 2, MaxSteps: 6}
	st, err := c.SubmitJob(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if st.ID == "" || st.State == "" {
		t.Fatalf("queued status incomplete: %+v", st)
	}
	done, err := c.WaitJob(ctx, st.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if done.State != JobDone || done.Summary == nil || done.Summary.Completed != 2 {
		t.Fatalf("job did not finish cleanly: %+v", done)
	}
	jobs, err := c.Jobs(ctx)
	if err != nil || len(jobs) != 1 {
		t.Fatalf("Jobs = %v, %v", jobs, err)
	}
}

func TestClientRunJobStreamsAndHitsCache(t *testing.T) {
	c := testService(t)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	spec := JobSpec{Scenario: "pipeline-chain-tiny", Runs: 3, MaxSteps: 6, Seed: 11}

	var events []JobEvent
	cold, err := c.RunJob(ctx, spec, func(ev JobEvent) { events = append(events, ev) })
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 3 || cold.Completed != 3 || cold.CacheHits != 0 {
		t.Fatalf("cold run: %d events, summary %+v", len(events), cold)
	}
	warm, err := c.RunJob(ctx, spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if warm.CacheHits != 3 {
		t.Fatalf("warm run hit %d/3", warm.CacheHits)
	}
	if warm.BestCost != cold.BestCost || warm.BestMakespanMS != cold.BestMakespanMS ||
		warm.FrontSize != cold.FrontSize {
		t.Fatalf("warm summary drifted:\ncold %+v\nwarm %+v", cold, warm)
	}
}

func TestClientErrorsSurfaceServerMessage(t *testing.T) {
	c := testService(t)
	ctx := context.Background()
	if _, err := c.SubmitJob(ctx, JobSpec{Scenario: "no-such"}); err == nil {
		t.Fatal("bad scenario accepted")
	}
	if _, err := c.Job(ctx, "job-999999"); err == nil {
		t.Fatal("missing job returned")
	}
}

// TestClientSpeaksV1 pins that the client addresses the versioned API:
// requests must carry the /v1 prefix, the only paths the server mounts.
func TestClientSpeaksV1(t *testing.T) {
	var sawPath string
	srv := serve.New(serve.Options{Cache: runner.NewResultCache(16, 0), Logf: t.Logf})
	inner := srv.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sawPath = r.URL.Path
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	c := NewClient(ts.URL)
	if err := c.Health(context.Background()); err != nil {
		t.Fatal(err)
	}
	if sawPath != "/v1/healthz" {
		t.Fatalf("client requested %q, want /v1/healthz", sawPath)
	}
	info, err := c.CacheStats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !info.Enabled || info.Policy != "lru" {
		t.Fatalf("CacheStats = %+v, want enabled lru cache", info)
	}
}

// TestClientParsesErrorEnvelope pins that the structured /v1 error
// envelope surfaces both message and code.
func TestClientParsesErrorEnvelope(t *testing.T) {
	c := testService(t)
	_, err := c.Job(context.Background(), "job-999999")
	if err == nil {
		t.Fatal("missing job returned no error")
	}
	if !strings.Contains(err.Error(), "not_found") || !strings.Contains(err.Error(), "job-999999") {
		t.Fatalf("error %q missing code or message", err)
	}
}
