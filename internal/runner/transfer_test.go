package runner

import (
	"context"
	"strings"
	"testing"

	"repro/internal/sched"
	"repro/internal/search"
)

// TestDonorRecordingAndApplyTransfer: running a batch through WithCache
// populates the donor index; a later factory on the same instance pair
// warm-starts from it — through applyTransfer and through
// WithCache{Transfer: true} alike — and the donor key skews the receiving
// factory's fingerprint (and therefore its cache key).
func TestDonorRecordingAndApplyTransfer(t *testing.T) {
	app, arch := testInstance(t)
	f := testFactory(t, app, arch)
	cache := NewResultCache(64)
	fn := mustWithCache(t, CacheConfig{Cache: cache, Factory: f})

	donor, err := fn(context.Background(), 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	if cache.DonorCount() != 1 {
		t.Fatalf("donor count = %d, want 1", cache.DonorCount())
	}
	key, got, ok := cache.Donor(app.Digest(), arch.Digest())
	if !ok || key == "" || got.Cost != donor.Cost {
		t.Fatalf("Donor() = %q, %+v, %v", key, got, ok)
	}
	// The donor copy is isolated from the index.
	got.Best.Assign[0].Res = 99
	_, again, _ := cache.Donor(app.Digest(), arch.Digest())
	if again.Best.Assign[0].Res == 99 {
		t.Fatal("donor index returned aliased mapping state")
	}

	warm := testFactory(t, app, arch)
	coldFP, _ := warm.Fingerprint()
	if !applyTransfer(warm, cache, app.Digest(), arch.Digest()) {
		t.Fatal("applyTransfer found no donor")
	}
	warmFP, _ := warm.Fingerprint()
	if warmFP == coldFP {
		t.Fatal("warm start did not skew the fingerprint")
	}
	if !strings.Contains(warmFP, key) {
		t.Fatalf("fingerprint %q does not carry donor key %q", warmFP, key)
	}
	// WithCache with Transfer installs the same donor before it keys the
	// runs: a fresh factory ends up with the same warm fingerprint.
	viaCache := testFactory(t, app, arch)
	wfn := mustWithCache(t, CacheConfig{Cache: cache, Factory: viaCache, Transfer: true})
	if fp, _ := viaCache.Fingerprint(); fp != warmFP {
		t.Fatalf("WithCache{Transfer} fingerprint %q, want %q", fp, warmFP)
	}
	// The warm run reports its donor in the outcome telemetry, and the
	// aggregate folds it.
	agg, err := Run(context.Background(), app, Options{Runs: 2, Workers: 2, BaseSeed: 40}, wfn)
	if err != nil {
		t.Fatal(err)
	}
	if agg.TransferRuns != 2 || agg.TransferKey != key || agg.TransferCost != donor.Cost {
		t.Fatalf("aggregate transfer telemetry %d/%q/%v, want 2/%q/%v",
			agg.TransferRuns, agg.TransferKey, agg.TransferCost, key, donor.Cost)
	}
	// A warm incumbent can only help: no warm run ends worse than the
	// donor it started from.
	if agg.BestCost > donor.Cost {
		t.Fatalf("warm best %v worse than its own donor %v", agg.BestCost, donor.Cost)
	}
}

// TestDonorIndexKeepsMinCostOrderIndependent: the retained donor is the
// cost minimum with lexicographic key tie-break, whatever the offer
// order — the property that makes transfer worker-count independent.
func TestDonorIndexKeepsMinCostOrderIndependent(t *testing.T) {
	mk := func(cost float64) *Outcome {
		return &Outcome{Best: &sched.Mapping{Assign: []sched.Placement{{}}}, HasCost: true, Cost: cost}
	}
	offers := []struct {
		key  string
		cost float64
	}{{"cc", 5}, {"aa", 3}, {"bb", 3}, {"dd", 9}}
	perm := [][]int{{0, 1, 2, 3}, {3, 2, 1, 0}, {2, 0, 3, 1}, {1, 3, 0, 2}}
	for _, p := range perm {
		rc := NewResultCache(8)
		for _, i := range p {
			rc.offerDonor("app", "arch", offers[i].key, mk(offers[i].cost))
		}
		key, out, ok := rc.Donor("app", "arch")
		if !ok || key != "aa" || out.Cost != 3 {
			t.Fatalf("order %v retained %q/%v, want aa/3", p, key, out.Cost)
		}
	}
	// Ineligible outcomes never become donors.
	rc := NewResultCache(8)
	rc.offerDonor("app", "arch", "x", &Outcome{HasCost: true, Cost: 1})          // no mapping
	rc.offerDonor("app", "arch", "y", &Outcome{Best: &sched.Mapping{}, Cost: 1}) // no cost
	rc.offerDonor("app", "arch", "", mk(1))                                      // no key
	if _, _, ok := rc.Donor("app", "arch"); ok {
		t.Fatal("ineligible outcome recorded as donor")
	}
}

// TestDonorTiePrefersColdOutcome: at equal cost a transfer-seeded
// outcome never displaces a cold donor (whatever its key), so repeated
// identical transfer submissions are a cache-warm fixed point; a warm
// outcome that strictly improves still takes over. Warm-vs-warm ties
// fall back to the key rule.
func TestDonorTiePrefersColdOutcome(t *testing.T) {
	mkWarm := func(cost float64) *Outcome {
		return &Outcome{
			Best: &sched.Mapping{Assign: []sched.Placement{{}}}, HasCost: true, Cost: cost,
			Sched: &search.SchedStats{TransferKey: "donorkey", TransferCost: cost},
		}
	}
	mkCold := func(cost float64) *Outcome {
		return &Outcome{Best: &sched.Mapping{Assign: []sched.Placement{{}}}, HasCost: true, Cost: cost}
	}
	rc := NewResultCache(8)
	rc.offerDonor("app", "arch", "mm", mkCold(5))
	rc.offerDonor("app", "arch", "aa", mkWarm(5)) // equal cost, smaller key: still loses
	if key, _, _ := rc.Donor("app", "arch"); key != "mm" {
		t.Fatalf("equal-cost warm outcome displaced the cold donor (have %q)", key)
	}
	rc.offerDonor("app", "arch", "zz", mkWarm(4)) // strictly better: takes over
	if key, out, _ := rc.Donor("app", "arch"); key != "zz" || out.Cost != 4 {
		t.Fatalf("improving warm outcome did not become the donor (have %q)", key)
	}
	rc.offerDonor("app", "arch", "bb", mkWarm(4)) // warm-vs-warm tie: smaller key
	if key, _, _ := rc.Donor("app", "arch"); key != "bb" {
		t.Fatalf("warm-vs-warm tie ignored the key rule (have %q)", key)
	}
	// And the offer order cannot matter: cold-after-warm reclaims the tie.
	rc2 := NewResultCache(8)
	rc2.offerDonor("app", "arch", "aa", mkWarm(5))
	rc2.offerDonor("app", "arch", "mm", mkCold(5))
	if key, _, _ := rc2.Donor("app", "arch"); key != "mm" {
		t.Fatalf("cold outcome offered second lost the equal-cost tie (have %q)", key)
	}
}

// TestApplyTransferNilAndMissing: a nil cache — the shape a server with
// caching disabled produces — and a missing donor both leave the factory
// untouched, whether asked directly or through WithCache{Transfer: true}.
func TestApplyTransferNilAndMissing(t *testing.T) {
	app, arch := testInstance(t)
	f := testFactory(t, app, arch)
	before, _ := f.Fingerprint()

	if applyTransfer(f, nil, app.Digest(), arch.Digest()) {
		t.Fatal("nil cache produced a donor")
	}
	if applyTransfer(f, NewResultCache(8), app.Digest(), arch.Digest()) { // empty index
		t.Fatal("empty cache produced a donor")
	}
	mustWithCache(t, CacheConfig{Cache: nil, Factory: f, Transfer: true})
	mustWithCache(t, CacheConfig{Cache: NewResultCache(8), Factory: f, Transfer: true})
	after, _ := f.Fingerprint()
	if before != after {
		t.Fatal("failed transfer attempts mutated the fingerprint")
	}
}

// TestOutcomeCodecSchedSkew: outcomes with scheduler telemetry
// round-trip; pre-PR10 snapshots (no sched field) decode with nil; and
// outcomes without telemetry still encode byte-identically to the old
// wire form.
func TestOutcomeCodecSchedSkew(t *testing.T) {
	o := &Outcome{
		Best:    &sched.Mapping{Assign: []sched.Placement{{Res: 1}}},
		HasCost: true,
		Cost:    4.5,
		Sched: &search.SchedStats{
			Policy: search.SchedUCB,
			Slice:  8,
			Arms: []search.ArmStats{
				{Name: "sa", Slices: 3, Steps: 24, Reward: 1.25},
				{Name: "ga", Slices: 1, Steps: 8, Reward: 0.5},
			},
			TransferKey:  "feed",
			TransferCost: 9.75,
		},
	}
	b, err := EncodeOutcome(o)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeOutcome(b)
	if err != nil {
		t.Fatal(err)
	}
	if back.Sched == nil || back.Sched.Policy != search.SchedUCB ||
		len(back.Sched.Arms) != 2 || back.Sched.Arms[0] != o.Sched.Arms[0] ||
		back.Sched.TransferKey != "feed" || back.Sched.TransferCost != 9.75 {
		t.Fatalf("sched telemetry did not round-trip: %+v", back.Sched)
	}

	plain := &Outcome{Best: o.Best, HasCost: true, Cost: 4.5}
	pb, err := EncodeOutcome(plain)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(pb), "sched") {
		t.Fatalf("sched-less outcome leaks a sched field: %s", pb)
	}
	old, err := DecodeOutcome(pb) // the pre-PR10 wire form
	if err != nil {
		t.Fatal(err)
	}
	if old.Sched != nil {
		t.Fatalf("old snapshot decoded with sched telemetry: %+v", old.Sched)
	}
}

// TestWarmRunCachesUnderDistinctKey: a warm-started run and its cold
// twin never share a cache entry — the donor key is part of the run
// key — so self-donation cannot corrupt the cache.
func TestWarmRunCachesUnderDistinctKey(t *testing.T) {
	app, arch := testInstance(t)
	cold := testFactory(t, app, arch)
	cache := NewResultCache(64)
	fn := mustWithCache(t, CacheConfig{Cache: cache, Factory: cold})
	if _, err := fn(context.Background(), 0, 7); err != nil {
		t.Fatal(err)
	}

	warm := testFactory(t, app, arch)
	if !applyTransfer(warm, cache, app.Digest(), arch.Digest()) {
		t.Fatal("no donor")
	}
	ck, _ := StrategyKey(cold, 0)(0, 7)
	wk, _ := StrategyKey(warm, 0)(0, 7)
	if ck == wk {
		t.Fatal("warm and cold runs share a cache key")
	}
	wfn := mustWithCache(t, CacheConfig{Cache: cache, Factory: warm})
	out, err := wfn(context.Background(), 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	if out.FromCache {
		t.Fatal("warm run answered from the cold run's cache entry")
	}
}
