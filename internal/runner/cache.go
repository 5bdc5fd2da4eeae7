package runner

import (
	"context"
	"errors"
	"strconv"
	"sync"

	"repro/internal/memo"
	"repro/internal/search"
)

// ResultCache memoizes completed run outcomes under the deterministic run
// key — sha256 over (result epoch, application digest, architecture
// digest, strategy / objective fingerprint, step budget, seed). Every run
// is a pure function of that key, so a hit is bit-identical to recomputation:
// the cache stores a private deep copy and hands a fresh deep copy to
// every consumer, which keeps cached mappings and fronts isolated from
// whatever the engine mutates downstream.
type ResultCache struct {
	c *memo.Cache[*Outcome]

	// The transfer-donor index (see transfer.go): per instance pair, the
	// best outcome seen so far, kept outside the memo cache because it
	// survives eviction and is keyed by (app, arch) rather than the full
	// run key. Lazily initialized under donorMu; not persisted by
	// Snapshot — replayed runs repopulate it.
	donorMu sync.Mutex
	donors  map[string]donorEntry
}

// ResultCacheOptions sizes a ResultCache. The zero value selects the
// memo default. Outcomes never expire by the clock; an outcome of other
// code misses by its key (ResultEpoch) and ages out under LRU.
type ResultCacheOptions struct {
	// Capacity bounds the cached outcome count (<=0 selects
	// memo.DefaultCapacity).
	Capacity int
}

// NewResultCacheWith creates a cache shaped by opts.
func NewResultCacheWith(opts ResultCacheOptions) *ResultCache {
	return &ResultCache{c: memo.New[*Outcome](opts.Capacity)}
}

// NewResultCache creates a cache bounded to capacity entries (<=0 selects
// memo.DefaultCapacity).
func NewResultCache(capacity int) *ResultCache {
	return NewResultCacheWith(ResultCacheOptions{Capacity: capacity})
}

// Stats snapshots the underlying cache counters.
func (rc *ResultCache) Stats() memo.Stats { return rc.c.Stats() }

// Len returns the resident entry count.
func (rc *ResultCache) Len() int { return rc.c.Len() }

// cloneOutcome deep-copies an outcome so cache-resident state never
// aliases state owned by a consumer. FromCache is deliberately reset —
// it describes a delivery, not the solution.
func cloneOutcome(o *Outcome) *Outcome {
	c := *o
	c.FromCache = false
	if o.Best != nil {
		c.Best = o.Best.Clone()
	}
	if o.Front != nil {
		c.Front = o.Front.Clone()
	}
	if o.MoveProposed != nil {
		c.MoveProposed = make(map[string]int64, len(o.MoveProposed))
		for k, v := range o.MoveProposed {
			c.MoveProposed[k] = v
		}
	}
	if o.MoveAccepted != nil {
		c.MoveAccepted = make(map[string]int64, len(o.MoveAccepted))
		for k, v := range o.MoveAccepted {
			c.MoveAccepted[k] = v
		}
	}
	c.Sched = o.Sched.Clone()
	return &c
}

// KeyFunc derives the memoization key of one run; ok=false marks the run
// uncacheable (the wrapper then always computes).
type KeyFunc func(run int, seed int64) (memo.Key, bool)

// uncacheable is the KeyFunc of configurations that must not be cached.
func uncacheable(int, int64) (memo.Key, bool) { return memo.Key{}, false }

// ResultEpoch names the code that computes results. A run is a pure
// function of its fingerprinted inputs and of that code, so the epoch is
// the first part of every run's cache key: an outcome cached, or
// snapshotted, by code of another epoch never hits and ages out under
// LRU. Bump it in any change that alters a result for an unchanged
// fingerprint — that is, whenever a results golden is re-recorded;
// TestResultEpochPinsGoldens fails until it is bumped and re-pinned.
const ResultEpoch = 1

// StrategyKey builds the KeyFunc of a strategy-factory batch: the
// instance digests and the factory fingerprint are computed once, each
// run then contributes only its seed and the driver's step budget. The
// run index is deliberately absent — a run's result depends on its seed
// alone. Factories carrying function-typed hooks are uncacheable.
func StrategyKey(f *search.Factory, maxSteps int) KeyFunc {
	appD, archD := f.Digests()
	return strategyKey(ResultEpoch, appD, archD, f, maxSteps)
}

// strategyKey is StrategyKey at a given result epoch, over instance
// digests the caller already holds.
func strategyKey(epoch int, appD, archD string, f *search.Factory, maxSteps int) KeyFunc {
	fp, ok := f.Fingerprint()
	if !ok {
		return uncacheable
	}
	ep := strconv.Itoa(epoch)
	steps := strconv.Itoa(maxSteps)
	return func(run int, seed int64) (memo.Key, bool) {
		return memo.KeyOf(ep, appD, archD, fp, steps, strconv.FormatInt(seed, 10)), true
	}
}

// CacheConfig describes one memoized run source for WithCache: the
// cache plus a strategy-engine factory run for at most MaxSteps driver
// steps per run.
type CacheConfig struct {
	// Cache is the memoized result cache; nil disables caching (the
	// resolved RunFunc computes every run).
	Cache *ResultCache

	// Factory + MaxSteps select a budgeted strategy-engine batch
	// (StrategyBudget behind StrategyKey).
	Factory  *search.Factory
	MaxSteps int

	// Transfer warm-starts the factory from Cache's best donor on the
	// same instance pair, when there is one (see transfer.go). WithCache
	// installs the donor before it derives the cache keys, so the donor
	// key is part of every run's key.
	Transfer bool
}

// WithCache resolves cfg into a cache-wrapped RunFunc, the single
// cached entry point. A hit returns a deep copy of the stored outcome
// (flagged FromCache) without computing; a miss computes, stores a deep
// copy, and returns the original; concurrent identical misses compute
// once (singleflight); errors — including the cancellation errors
// truncated runs return — are never cached. With cfg.Cache nil the
// source runs uncached: WithCache returns StrategyBudget itself.
func WithCache(cfg CacheConfig) (RunFunc, error) {
	f := cfg.Factory
	if f == nil {
		return nil, errors.New("runner: WithCache needs a Factory")
	}
	if cfg.Cache == nil {
		return StrategyBudget(f, cfg.MaxSteps), nil
	}
	// The instance digests name the pair in the donor index and in every
	// run key. They are hashed once per prepared instance, so a job over
	// a corpus scenario, whose instance the process shares, hashes nothing.
	appD, archD := f.Digests()
	if cfg.Transfer {
		applyTransfer(f, cfg.Cache, appD, archD)
	}
	keyFor := strategyKey(ResultEpoch, appD, archD, f, cfg.MaxSteps)
	fn := cached(cfg.Cache, keyFor, StrategyBudget(f, cfg.MaxSteps))
	// Every successful outcome — fresh or replayed from a restored
	// snapshot — is offered to the transfer-donor index, so later jobs on
	// the same instance pair can warm-start from it (see transfer.go).
	return func(ctx context.Context, run int, seed int64) (*Outcome, error) {
		out, err := fn(ctx, run, seed)
		if err == nil {
			if k, ok := keyFor(run, seed); ok {
				cfg.Cache.offerDonor(appD, archD, k.Hex(), out)
			}
		}
		return out, err
	}, nil
}

// cached wraps fn with the memoized result cache under keyFor.
func cached(cache *ResultCache, keyFor KeyFunc, fn RunFunc) RunFunc {
	return func(ctx context.Context, run int, seed int64) (*Outcome, error) {
		k, ok := keyFor(run, seed)
		if !ok {
			return fn(ctx, run, seed)
		}
		for {
			var fresh *Outcome
			v, hit, err := cache.c.Do(ctx, k, func() (*Outcome, error) {
				out, err := fn(ctx, run, seed)
				if err != nil {
					return nil, err
				}
				fresh = out
				return cloneOutcome(out), nil
			})
			if err != nil {
				// A singleflight waiter inherits the leader's error — but
				// the leader's cancellation is not ours. When this caller's
				// context is still live, re-enter Do so a single new leader
				// is elected among the surviving waiters (computing via fn
				// directly here would race N duplicate explorations —
				// exactly what the singleflight exists to prevent). A
				// caller whose own context is cancelled falls through and
				// returns the error.
				if ctx.Err() == nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
					continue
				}
				return nil, err
			}
			if v == nil {
				// Defensive: nil is never a legitimately cached outcome.
				return nil, errors.New("runner: cache returned nil outcome")
			}
			if fresh != nil && !hit {
				// This caller ran the compute; hand back its own outcome
				// (the cache holds an independent copy).
				return fresh, nil
			}
			out := cloneOutcome(v)
			out.FromCache = true
			return out, nil
		}
	}
}
