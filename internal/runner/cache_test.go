package runner

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/memo"
	"repro/internal/model"
	"repro/internal/objective"
	"repro/internal/sched"
	"repro/internal/search"
)

// testInstance builds a small deterministic (app, arch) pair.
func testInstance(t *testing.T) (*model.App, *model.Arch) {
	t.Helper()
	cfg := apps.DefaultMotionConfig()
	return apps.MotionDetection(cfg), apps.MotionArch(2000, cfg)
}

func testFactory(t *testing.T, app *model.App, arch *model.Arch) *search.Factory {
	t.Helper()
	scfg := search.DefaultConfig()
	scfg.SA.MaxIters = 300
	scfg.SA.Warmup = 50
	scfg.SA.QuenchIters = 100
	scfg.FrontMetrics = []objective.Metric{objective.HWArea, objective.Makespan}
	f, err := search.NewFactory("sa", app, arch, scfg)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// mustWithCache resolves a CacheConfig or fails the test.
func mustWithCache(t *testing.T, cfg CacheConfig) RunFunc {
	t.Helper()
	fn, err := WithCache(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return fn
}

// outcomesEqual compares the quality fields the acceptance criteria pin.
func outcomesEqual(a, b *Outcome) error {
	if a.Cost != b.Cost || a.HasCost != b.HasCost {
		return fmt.Errorf("cost %v/%v vs %v/%v", a.Cost, a.HasCost, b.Cost, b.HasCost)
	}
	if a.Eval != b.Eval {
		return fmt.Errorf("eval %+v vs %+v", a.Eval, b.Eval)
	}
	if a.Evaluations != b.Evaluations {
		return fmt.Errorf("evaluations %d vs %d", a.Evaluations, b.Evaluations)
	}
	af, bf := a.Front.Len(), b.Front.Len()
	if af != bf {
		return fmt.Errorf("front size %d vs %d", af, bf)
	}
	return nil
}

func TestCachedStrategyBudgetBitIdentical(t *testing.T) {
	app, arch := testInstance(t)
	f := testFactory(t, app, arch)
	cache := NewResultCache(64)
	fn := mustWithCache(t, CacheConfig{Cache: cache, Factory: f})

	cold, err := fn(context.Background(), 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	if cold.FromCache {
		t.Fatal("first computation claims to be a cache hit")
	}
	warm, err := fn(context.Background(), 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.FromCache {
		t.Fatal("identical rerun missed the cache")
	}
	if err := outcomesEqual(cold, warm); err != nil {
		t.Fatalf("warm result differs from cold: %v", err)
	}
	// The cached copy must be isolated: mutating the returned mapping
	// must not corrupt later hits.
	warm.Best.Assign[0].Res = 99
	again, err := fn(context.Background(), 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	if again.Best.Assign[0].Res == 99 {
		t.Fatal("cache returned aliased mapping state")
	}
	// A different seed is a different key.
	other, err := fn(context.Background(), 1, 8)
	if err != nil {
		t.Fatal(err)
	}
	if other.FromCache {
		t.Fatal("different seed hit the cache")
	}
}

func TestCachedRunnerBatchCountsHits(t *testing.T) {
	app, arch := testInstance(t)
	f := testFactory(t, app, arch)
	cache := NewResultCache(64)
	fn := mustWithCache(t, CacheConfig{Cache: cache, Factory: f})

	cold, err := Run(context.Background(), app, Options{Runs: 3, Workers: 2, BaseSeed: 5}, fn)
	if err != nil {
		t.Fatal(err)
	}
	if cold.CacheHits != 0 {
		t.Fatalf("cold batch recorded %d hits", cold.CacheHits)
	}
	warm, err := Run(context.Background(), app, Options{Runs: 3, Workers: 2, BaseSeed: 5}, fn)
	if err != nil {
		t.Fatal(err)
	}
	if warm.CacheHits != 3 {
		t.Fatalf("warm batch hits = %d, want 3", warm.CacheHits)
	}
	if warm.BestCost != cold.BestCost || warm.BestEval != cold.BestEval ||
		warm.BestRun != cold.BestRun || warm.Evaluations != cold.Evaluations {
		t.Fatalf("warm aggregate differs:\ncold %+v\nwarm %+v", cold, warm)
	}
	if cold.Front.Len() != warm.Front.Len() {
		t.Fatalf("front size drifted: %d vs %d", cold.Front.Len(), warm.Front.Len())
	}
}

func TestCancelledRunNotCached(t *testing.T) {
	cache := NewResultCache(64)
	var calls atomic.Int32
	inner := func(ctx context.Context, run int, seed int64) (*Outcome, error) {
		calls.Add(1)
		<-ctx.Done() // simulate a run truncated mid-flight
		return nil, ctx.Err()
	}
	keyFor := func(run int, seed int64) (memo.Key, bool) {
		return memo.KeyOf("fixed-key"), true
	}
	fn := cached(cache, keyFor, inner)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := fn(ctx, 0, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if cache.Len() != 0 {
		t.Fatalf("partial result was cached: %d entries", cache.Len())
	}
	// The key stays computable afterwards.
	ok := func(ctx context.Context, run int, seed int64) (*Outcome, error) {
		return &Outcome{Best: &sched.Mapping{}, HasCost: true, Cost: 1}, nil
	}
	fn = cached(cache, keyFor, ok)
	out, err := fn(context.Background(), 0, 1)
	if err != nil || out.FromCache {
		t.Fatalf("retry after cancellation: %+v, %v", out, err)
	}
	if cache.Len() != 1 {
		t.Fatalf("completed result not cached")
	}
}

// TestWaiterSurvivesLeaderCancellation pins the singleflight fallback:
// when the Do leader's run is cancelled (its client hung up), a waiter
// whose own context is live must compute independently instead of
// inheriting the cancellation and silently dropping the run.
func TestWaiterSurvivesLeaderCancellation(t *testing.T) {
	cache := NewResultCache(64)
	keyFor := func(run int, seed int64) (memo.Key, bool) { return memo.KeyOf("shared"), true }
	leaderIn := make(chan struct{})
	var calls atomic.Int32
	inner := func(ctx context.Context, run int, seed int64) (*Outcome, error) {
		// The first call is the leader's: the waiter starts only after
		// the leader has signalled from inside compute.
		if calls.Add(1) == 1 {
			leaderIn <- struct{}{}
			// Leader path: block until our (cancelled) job tears us down.
			<-ctx.Done()
			return nil, ctx.Err()
		}
		// Retry path: a live-context caller computing independently.
		return &Outcome{Best: &sched.Mapping{}, HasCost: true, Cost: 7}, nil
	}
	fn := cached(cache, keyFor, inner)

	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	leaderErr := make(chan error, 1)
	go func() {
		_, err := fn(leaderCtx, 0, 1)
		leaderErr <- err
	}()
	<-leaderIn // leader is inside compute, registered in the flight

	waiterDone := make(chan error, 1)
	var got *Outcome
	go func() {
		out, err := fn(context.Background(), 0, 1)
		got = out
		waiterDone <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the waiter join the flight
	cancelLeader()

	if err := <-leaderErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("leader err = %v", err)
	}
	if err := <-waiterDone; err != nil {
		t.Fatalf("waiter inherited the leader's cancellation: %v", err)
	}
	if got == nil || got.Cost != 7 {
		t.Fatalf("waiter result %+v", got)
	}
	if cache.Len() != 1 {
		t.Fatalf("waiter's independent result not cached: %d entries", cache.Len())
	}
}

func TestUncacheableConfigBypassesCache(t *testing.T) {
	app, arch := testInstance(t)
	scfg := search.DefaultConfig()
	scfg.SA.MaxIters = 100
	scfg.SA.Warmup = 10
	scfg.SA.QuenchIters = 0
	scfg.SA.Trace = func(core.TracePoint) {} // hook: uncacheable
	f, err := search.NewFactory("sa", app, arch, scfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := f.Fingerprint(); ok {
		t.Fatal("config with a Trace hook reported a fingerprint")
	}
	cache := NewResultCache(64)
	fn := mustWithCache(t, CacheConfig{Cache: cache, Factory: f})
	if _, err := fn(context.Background(), 0, 3); err != nil {
		t.Fatal(err)
	}
	if cache.Len() != 0 {
		t.Fatal("uncacheable run was cached")
	}
}

func TestStrategyKeySeparatesInstances(t *testing.T) {
	app, arch := testInstance(t)
	f := testFactory(t, app, arch)
	k1, ok1 := StrategyKey(f, 0)(0, 1)
	k2, ok2 := StrategyKey(f, 0)(5, 1) // run index must not matter
	if !ok1 || !ok2 || k1 != k2 {
		t.Fatal("key depends on run index")
	}
	k3, _ := StrategyKey(f, 0)(0, 2)
	if k1 == k3 {
		t.Fatal("key ignores the seed")
	}
	k4, _ := StrategyKey(f, 10)(0, 1)
	if k1 == k4 {
		t.Fatal("key ignores the step budget")
	}
	// A different architecture produces a different key family.
	cfgSmall := apps.DefaultMotionConfig()
	archSmall := apps.MotionArch(400, cfgSmall)
	f2 := testFactory(t, app, archSmall)
	k5, _ := StrategyKey(f2, 0)(0, 1)
	if k1 == k5 {
		t.Fatal("key ignores the architecture digest")
	}
}
