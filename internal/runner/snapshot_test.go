package runner

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/search"
)

// digestOf is the bit-identity fingerprint of one cached outcome: the
// sha256 of its canonical wire encoding. Two outcomes with the same
// digest serialize identically, which is the acceptance bar for
// snapshot persistence ("bit-identical summary").
func digestOf(t *testing.T, o *Outcome) string {
	t.Helper()
	b, err := EncodeOutcome(o)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// matrixFactory builds the snapshot matrix's factory for one strategy.
func matrixFactory(t *testing.T, strat string) *search.Factory {
	t.Helper()
	app, arch := testInstance(t)
	scfg := search.DefaultConfig()
	scfg.SA.MaxIters = 200
	scfg.SA.Warmup = 20
	scfg.SA.QuenchIters = 50
	f, err := search.NewFactory(strat, app, arch, scfg)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// fillMatrix runs a small scenario matrix (strategies x seeds) through a
// cached RunFunc, returning seed -> outcome digest per strategy.
func fillMatrix(t *testing.T, cache *ResultCache, strategies []string, seeds []int64) map[string]string {
	t.Helper()
	digests := map[string]string{}
	for _, strat := range strategies {
		fn, err := WithCache(CacheConfig{Cache: cache, Factory: matrixFactory(t, strat), MaxSteps: 50})
		if err != nil {
			t.Fatal(err)
		}
		for _, seed := range seeds {
			o, err := fn(context.Background(), 0, seed)
			if err != nil {
				t.Fatalf("%s/%d: %v", strat, seed, err)
			}
			digests[fmt.Sprintf("%s/%d", strat, seed)] = digestOf(t, o)
		}
	}
	return digests
}

// TestResultSnapshotRoundTripBitIdentical pins the acceptance criterion:
// a cache snapshotted to disk and restored into a fresh process answers
// every job of the original scenario matrix from cache, with outcomes
// whose wire encodings are bit-identical to the originals.
func TestResultSnapshotRoundTripBitIdentical(t *testing.T) {
	strategies := []string{"sa", "list", "portfolio"}
	seeds := []int64{1, 2, 7}

	warm := NewResultCache(0)
	want := fillMatrix(t, warm, strategies, seeds)

	var buf bytes.Buffer
	if err := warm.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}

	cold := NewResultCache(0)
	n, err := cold.Restore(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if n != len(want) {
		t.Fatalf("restored %d entries, want %d", n, len(want))
	}

	// Re-run the identical matrix against the restored cache with a
	// compute function that must never fire: every outcome must come out
	// of the snapshot, marked FromCache, and digest-identical.
	for _, strat := range strategies {
		inner, err := WithCache(CacheConfig{Cache: cold, Factory: matrixFactory(t, strat), MaxSteps: 50})
		if err != nil {
			t.Fatal(err)
		}
		for _, seed := range seeds {
			o, err := inner(context.Background(), 0, seed)
			if err != nil {
				t.Fatal(err)
			}
			if !o.FromCache {
				t.Fatalf("%s/%d recomputed after restore", strat, seed)
			}
			id := fmt.Sprintf("%s/%d", strat, seed)
			if got := digestOf(t, o); got != want[id] {
				t.Fatalf("%s: restored digest %s != original %s", id, got, want[id])
			}
		}
	}

	// The restored cache snapshots back to the identical bytes: the
	// round trip is lossless all the way down to the file format.
	var buf2 bytes.Buffer
	if err := cold.Snapshot(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("snapshot of restored cache differs from the original snapshot")
	}
}

// TestSnapshotAcrossEpochs pins what the result epoch in the cache key
// buys: a snapshot restored by code of the same epoch answers every run
// from cache, bit-identically, while code of the next epoch hits none of
// it and recomputes each run (bit-identically here, since this code did
// not change its results).
func TestSnapshotAcrossEpochs(t *testing.T) {
	strategies := []string{"sa", "list", "portfolio"}
	seeds := []int64{1, 2, 7}
	warm := NewResultCache(0)
	want := fillMatrix(t, warm, strategies, seeds)
	var snap bytes.Buffer
	if err := warm.Snapshot(&snap); err != nil {
		t.Fatal(err)
	}

	for _, epoch := range []int{ResultEpoch, ResultEpoch + 1} {
		cache := NewResultCache(0)
		if n, err := cache.Restore(bytes.NewReader(snap.Bytes())); err != nil || n != len(want) {
			t.Fatalf("epoch %d: restored %d entries (%v), want %d", epoch, n, err, len(want))
		}
		sameEpoch := epoch == ResultEpoch
		for _, strat := range strategies {
			f := matrixFactory(t, strat)
			fn := cached(cache, strategyKey(epoch, f.App().Digest(), f.Arch().Digest(), f, 50), StrategyBudget(f, 50))
			for _, seed := range seeds {
				o, err := fn(context.Background(), 0, seed)
				if err != nil {
					t.Fatal(err)
				}
				id := fmt.Sprintf("%s/%d", strat, seed)
				if o.FromCache != sameEpoch {
					t.Errorf("epoch %d: %s served from cache = %v, want %v", epoch, id, o.FromCache, sameEpoch)
				}
				if got := digestOf(t, o); got != want[id] {
					t.Errorf("epoch %d: %s digest %s != original %s", epoch, id, got, want[id])
				}
			}
		}
		wantHits := 0
		if sameEpoch {
			wantHits = len(want)
		}
		if st := cache.Stats(); st.Hits != uint64(wantHits) || st.Hits+st.Misses != uint64(len(want)) {
			t.Errorf("epoch %d: %d hits, %d misses; want %d hits of %d runs", epoch, st.Hits, st.Misses, wantHits, len(want))
		}
	}
}

// TestResultRestoreCorruptDegradesCold: a damaged snapshot loads nothing
// and the cache recomputes from scratch instead of serving poison.
func TestResultRestoreCorruptDegradesCold(t *testing.T) {
	warm := NewResultCache(0)
	fillMatrix(t, warm, []string{"sa"}, []int64{1, 2})
	var buf bytes.Buffer
	if err := warm.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[len(raw)/2] ^= 0x40

	cold := NewResultCache(0)
	if _, err := cold.Restore(bytes.NewReader(raw)); err == nil {
		t.Fatal("corrupt snapshot restored without error")
	}
	if cold.Len() != 0 {
		t.Fatalf("corrupt restore left %d entries", cold.Len())
	}
	// The cold cache still works: the matrix recomputes cleanly.
	fillMatrix(t, cold, []string{"sa"}, []int64{1, 2})
	if cold.Len() != 2 {
		t.Fatalf("recompute after failed restore cached %d entries, want 2", cold.Len())
	}
}

// TestWithCacheValidation pins the one-entry-point contract: a factory
// is the only work source, and WithCache refuses a config without one.
func TestWithCacheValidation(t *testing.T) {
	app, arch := testInstance(t)
	f := testFactory(t, app, arch)
	cache := NewResultCache(0)

	if _, err := WithCache(CacheConfig{Cache: cache}); err == nil {
		t.Error("WithCache accepted a config without a factory")
	}
	if _, err := WithCache(CacheConfig{Cache: cache, Factory: f}); err != nil {
		t.Errorf("valid factory config rejected: %v", err)
	}
}
