package scenario

import (
	"context"
	"testing"

	"repro/internal/runner"
	"repro/internal/search"
)

// TestTransferWarmStartReachesDonorFast is the transfer acceptance test:
// after a cold layered-160 (= layered-xl) pass populates the result
// cache, a transfer-seeded rerun on a quarter of the cold step budget
// must already match or beat the donor's best cost — the warm start
// installs the donor as the scheduler's incumbent, so the rerun starts
// where the donor finished instead of from a random solution.
func TestTransferWarmStartReachesDonorFast(t *testing.T) {
	s, ok := Lookup("layered-160")
	if !ok {
		t.Fatal("layered-160 scenario missing")
	}
	cache := runner.NewResultCache(256)
	const coldSteps = 16

	cold, err := RunMatrix(context.Background(), []*Scenario{s}, MatrixOptions{
		Strategies: []string{"sa"},
		Runs:       1,
		Workers:    2,
		MaxSteps:   coldSteps,
		Cache:      cache,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(cold) != 1 || cold[0].TransferRuns != 0 {
		t.Fatalf("cold pass rows %+v", cold)
	}
	if cache.DonorCount() == 0 {
		t.Fatal("cold pass recorded no transfer donor")
	}

	warm, err := RunMatrix(context.Background(), []*Scenario{s}, MatrixOptions{
		Strategies: []string{"sa"},
		Runs:       1,
		Workers:    2,
		BaseSeed:   99, // a different seed stream: no cold cache entry to coast on
		MaxSteps:   coldSteps / 4,
		Cache:      cache,
		Overrides:  search.Overrides{Transfer: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	r := warm[0]
	if r.TransferRuns != 1 || r.TransferKey == "" {
		t.Fatalf("warm pass not transfer-seeded: %+v", r)
	}
	if r.TransferCost != cold[0].BestCost {
		t.Fatalf("donor cost %v != cold best %v", r.TransferCost, cold[0].BestCost)
	}
	if r.BestCost > r.TransferCost {
		t.Fatalf("warm rerun on %d/%d steps ended at %v, worse than its donor %v",
			coldSteps/4, coldSteps, r.BestCost, r.TransferCost)
	}
	t.Logf("layered-160 transfer: donor %.4f in %d steps, warm %.4f in %d steps",
		r.TransferCost, coldSteps, r.BestCost, coldSteps/4)

	// The whole donor pipeline is worker-count independent: rebuilding
	// the cache from scratch with a different worker count and replaying
	// both passes lands on the same donor key and the same warm result.
	// (Replaying against the SAME cache would legitimately pick a newer
	// donor — the warm run above beat its own donor and replaced it.)
	cache2 := runner.NewResultCache(256)
	if _, err := RunMatrix(context.Background(), []*Scenario{s}, MatrixOptions{
		Strategies: []string{"sa"},
		Runs:       1,
		Workers:    1,
		MaxSteps:   coldSteps,
		Cache:      cache2,
	}); err != nil {
		t.Fatal(err)
	}
	again, err := RunMatrix(context.Background(), []*Scenario{s}, MatrixOptions{
		Strategies: []string{"sa"},
		Runs:       1,
		Workers:    1,
		BaseSeed:   99,
		MaxSteps:   coldSteps / 4,
		Cache:      cache2,
		Overrides:  search.Overrides{Transfer: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if again[0].BestCost != r.BestCost || again[0].TransferKey != r.TransferKey ||
		again[0].FrontSize != r.FrontSize || again[0].Evaluations != r.Evaluations {
		t.Fatalf("transfer pipeline depends on worker count: %+v vs %+v", again[0], r)
	}
}
