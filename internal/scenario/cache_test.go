package scenario

import (
	"context"
	"testing"

	"repro/internal/runner"
)

// TestMatrixWarmCacheBitIdenticalAndFast is the PR's acceptance test:
// resubmitting an identical scenario × strategy × seed × budget cell
// against the warm result cache returns bit-identical quality fields
// (best cost, front size, makespan) and is at least 10x faster than the
// cold computation on the 160-task layered scenario.
func TestMatrixWarmCacheBitIdenticalAndFast(t *testing.T) {
	s, ok := Lookup("layered-160") // alias of layered-xl
	if !ok {
		t.Fatal("layered-160 scenario missing")
	}
	cache := runner.NewResultCache(256)
	opts := MatrixOptions{
		Strategies: []string{"sa"},
		Runs:       2,
		Workers:    2,
		MaxSteps:   6, // 6 driver steps × 64 annealing iters on 160 tasks: a measurable cold cell
		Cache:      cache,
		Warm:       true,
	}
	rows, err := RunMatrix(context.Background(), []*Scenario{s}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("got %d rows", len(rows))
	}
	r := rows[0]
	// RunMatrix already failed the matrix if any warm quality field
	// diverged from the cold pass; here we assert the cache actually
	// served the warm pass and quantify the speedup.
	if r.CacheHits != opts.Runs {
		t.Fatalf("warm pass hit %d/%d runs", r.CacheHits, opts.Runs)
	}
	if r.WarmWallMS <= 0 {
		t.Fatal("warm pass not recorded")
	}
	if r.WallMS < 10*r.WarmWallMS {
		t.Fatalf("warm speedup below 10x: cold %.3f ms, warm %.3f ms (%.1fx)",
			r.WallMS, r.WarmWallMS, r.WallMS/r.WarmWallMS)
	}
	t.Logf("layered-160 sa: cold %.1f ms, warm %.2f ms (%.0fx), best cost %.4f, front %d",
		r.WallMS, r.WarmWallMS, r.WallMS/r.WarmWallMS, r.BestCost, r.FrontSize)
}

// TestMatrixSharedCacheAcrossInvocations pins the cross-invocation path
// dsed relies on: a second RunMatrix call sharing the cache is served
// entirely from it and reproduces every deterministic field.
func TestMatrixSharedCacheAcrossInvocations(t *testing.T) {
	s, ok := Lookup("pipeline-chain-tiny")
	if !ok {
		t.Fatal("scenario missing")
	}
	cache := runner.NewResultCache(64)
	opts := MatrixOptions{Strategies: []string{"sa", "list"}, Runs: 2, Workers: 2, MaxSteps: 4, Cache: cache}
	cold, err := RunMatrix(context.Background(), []*Scenario{s}, opts)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := RunMatrix(context.Background(), []*Scenario{s}, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range cold {
		c, w := cold[i], warm[i]
		if c.BestCost != w.BestCost || c.BestMakespanMS != w.BestMakespanMS ||
			c.FrontSize != w.FrontSize || c.Evaluations != w.Evaluations {
			t.Fatalf("cell %s/%s drifted across invocations:\ncold %+v\nwarm %+v",
				c.Scenario, c.Strategy, c, w)
		}
	}
	if st := cache.Stats(); st.Hits == 0 {
		t.Fatalf("second invocation recorded no hits: %+v", st)
	}
}

func TestAliases(t *testing.T) {
	for alias, canon := range map[string]string{
		"fig2-small":  "paper-small-device",
		"layered-160": "layered-xl",
	} {
		s, ok := Lookup(alias)
		if !ok || s.Name != canon {
			t.Fatalf("alias %s resolved to %v, want %s", alias, s, canon)
		}
	}
	// Aliases work in selectors and resolve to canonical rows.
	scens, err := Select("layered-160")
	if err != nil {
		t.Fatal(err)
	}
	if len(scens) != 1 || scens[0].Name != "layered-xl" {
		t.Fatalf("Select(layered-160) = %v", scens)
	}
	// The catalog lists only canonical names.
	for _, n := range Names() {
		if _, isAlias := map[string]bool{"fig2-small": true, "layered-160": true}[n]; isAlias {
			t.Fatalf("alias %s leaked into the catalog", n)
		}
	}
}
