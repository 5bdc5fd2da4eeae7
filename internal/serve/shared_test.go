package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"reflect"
	"testing"

	"repro/internal/runner"
	"repro/internal/scenario"
	"repro/internal/search"
)

// TestScenarioJobsShareOneInstance: every job over a corpus scenario runs
// on the scenario's one prepared instance, whatever name the job uses for
// it, while an inline job brings its own models. Jobs of every strategy
// kind, a transfer job among them, run on that instance at once (under
// -race, any write to it is a failure), leave its models as generated, and
// answer exactly what runs over freshly instantiated models answer.
func TestScenarioJobsShareOneInstance(t *testing.T) {
	sc, ok := scenario.Lookup("fig2-small")
	if !ok {
		t.Fatal("fig2-small missing from the corpus")
	}
	app, arch, err := sc.Instantiate()
	if err != nil {
		t.Fatal(err)
	}
	wantApp, wantArch := app.Digest(), arch.Digest()

	a, err := resolve(&JobSpec{Scenario: "fig2-small", Strategy: "sa"})
	if err != nil {
		t.Fatal(err)
	}
	b, err := resolve(&JobSpec{Scenario: "paper-small-device", Strategy: "ga", Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if a.factory.App() != b.factory.App() || a.factory.Arch() != b.factory.Arch() {
		t.Fatal("two jobs over one scenario resolved to different models")
	}
	inline, err := resolve(&JobSpec{App: app, Arch: arch})
	if err != nil {
		t.Fatal(err)
	}
	if inline.factory.App() == a.factory.App() || inline.factory.App() != app {
		t.Fatal("an inline job does not run on its own models")
	}

	spec := func(strategy string, seed int64) JobSpec {
		return JobSpec{Scenario: "paper-small-device", Strategy: strategy, Runs: 2, Seed: seed, MaxSteps: 12, Workers: 2}
	}
	kinds := []JobSpec{spec("sa", 1), spec("ga", 2), spec("list", 3), spec("portfolio", 4), spec("bandit", 5)}
	kinds[0].Scenario = "fig2-small" // the alias shares the instance too
	donor := spec("sa", 7)
	transfer := spec("sa", 6)
	transfer.Transfer = true

	// The transfer job gets a server and cache of its own, warmed by one
	// donor job first, so the donor it draws does not depend on how the
	// other jobs interleave.
	s1 := New(Options{Cache: runner.NewResultCache(256), MaxJobs: len(kinds), Logf: t.Logf})
	s2 := New(Options{Cache: runner.NewResultCache(256), MaxJobs: 1, Logf: t.Logf})
	h1, h2 := s1.Handler(), s2.Handler()
	submit := func(h http.Handler, sp JobSpec) string {
		t.Helper()
		body, err := json.Marshal(sp)
		if err != nil {
			t.Fatal(err)
		}
		rec := post(context.Background(), h, "/v1/jobs", string(body))
		var st JobStatus
		if rec.Code != http.StatusAccepted || json.Unmarshal(rec.Body.Bytes(), &st) != nil {
			t.Fatalf("POST /v1/jobs %s = %d: %s", body, rec.Code, rec.Body)
		}
		return st.ID
	}
	submit(h2, donor)
	waitIdle(t, s2)
	ids := make([]string, len(kinds))
	for i, sp := range kinds {
		ids[i] = submit(h1, sp)
	}
	transferID := submit(h2, transfer)
	waitIdle(t, s1)
	waitIdle(t, s2)

	p, err := sc.Prepared()
	if err != nil {
		t.Fatal(err)
	}
	if gotApp, gotArch := p.Digests(); gotApp != wantApp || gotArch != wantArch {
		t.Fatalf("shared digests %s/%s, fresh %s/%s", gotApp, gotArch, wantApp, wantArch)
	}
	if p.App().Digest() != wantApp || p.Arch().Digest() != wantArch {
		t.Fatal("the jobs changed the shared models")
	}

	// The references run over fresh models; the transfer reference draws
	// from a cache that saw the same donor job.
	refCache := runner.NewResultCache(256)
	fresh(t, donor, refCache)
	for i, sp := range kinds {
		served(t, s1, ids[i], sp, fresh(t, sp, nil))
	}
	got := served(t, s2, transferID, transfer, fresh(t, transfer, refCache))
	if got.TransferKey == "" {
		t.Fatal("the transfer job ran without a donor")
	}
}

// fresh runs spec as resolve configures it, over freshly instantiated
// models, through cache (nil: uncached), and summarizes the runs.
func fresh(t *testing.T, spec JobSpec, cache *runner.ResultCache) *JobSummary {
	t.Helper()
	sc, _ := scenario.Lookup(spec.Scenario)
	app, arch, err := sc.Instantiate()
	if err != nil {
		t.Fatal(err)
	}
	cfg := sc.SearchConfig()
	if err := spec.Apply(&cfg); err != nil {
		t.Fatal(err)
	}
	cfg.FrontMetrics = frontMetrics
	f, err := search.NewFactory(spec.Strategy, app, arch, cfg)
	if err != nil {
		t.Fatal(err)
	}
	fn, err := runner.WithCache(runner.CacheConfig{Cache: cache, Factory: f, MaxSteps: spec.MaxSteps, Transfer: spec.Transfer})
	if err != nil {
		t.Fatal(err)
	}
	agg, err := runner.Run(context.Background(), app, runner.Options{Runs: spec.Runs, Workers: spec.Workers, BaseSeed: spec.Seed}, fn)
	if err != nil {
		t.Fatal(err)
	}
	return summarize(agg, 0)
}

// served checks that job id on s finished with want's summary (the wall
// time aside) and returns the served summary.
func served(t *testing.T, s *Server, id string, spec JobSpec, want *JobSummary) *JobSummary {
	t.Helper()
	st, ok := s.Status(id)
	if !ok || st.State != StateDone || st.Summary == nil {
		t.Fatalf("%s job %s: %+v", spec.Strategy, id, st)
	}
	got := *st.Summary
	got.WallMS = 0
	if !reflect.DeepEqual(&got, want) {
		t.Fatalf("%s job %s:\nserved %s\nfresh  %s", spec.Strategy, id, summaryString(&got), summaryString(want))
	}
	return &got
}

func summaryString(s *JobSummary) string {
	b, _ := json.Marshal(s)
	return string(b)
}
