package memo

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"sync"
	"sync/atomic"
	"time"
)

// Key is the cache key: a 32-byte digest. Derive keys with KeyOf so
// distinct part lists can never collide by concatenation.
type Key [32]byte

// KeyOf hashes the parts into a Key. Each part is length-prefixed, so
// ("ab", "c") and ("a", "bc") produce different keys.
func KeyOf(parts ...string) Key {
	h := sha256.New()
	var n [8]byte
	for _, p := range parts {
		binary.LittleEndian.PutUint64(n[:], uint64(len(p)))
		h.Write(n[:])
		h.Write([]byte(p))
	}
	var k Key
	h.Sum(k[:0])
	return k
}

// Hex renders the key as lowercase hex — the stable string form used
// where a key crosses a process boundary (fleet ring routing, logs).
func (k Key) Hex() string { return hex.EncodeToString(k[:]) }

// Default sizing used when Options fields are zero.
const (
	DefaultCapacity = 4096
	DefaultShards   = 16
)

// Options configures a Cache.
type Options struct {
	// Capacity bounds the total entry count across all shards (each shard
	// holds Capacity/Shards entries, minimum one). Non-positive selects
	// DefaultCapacity.
	Capacity int
	// Shards is the shard count, rounded up to a power of two.
	// Non-positive selects DefaultShards.
	Shards int
	// TTL, when positive, expires entries that many nanoseconds after
	// insertion; expiry is checked lazily on access.
	TTL time.Duration
	// StaleFor, when positive together with TTL, keeps expired entries
	// servable for that additional window: Do returns the stale value
	// immediately and refreshes it in the background (singleflight, errors
	// never cached) — stale-while-revalidate. Entries older than
	// TTL+StaleFor are dropped as before.
	StaleFor time.Duration
	// Clock overrides time.Now for TTL checks (tests inject a fake).
	Clock func() time.Time
}

// ShardStats is one shard's point-in-time counter snapshot.
type ShardStats struct {
	// Hits and Misses count Get/Do lookups by outcome (a stale serve
	// counts as a hit and additionally as a StaleServe).
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
	// Shared counts Do callers that piggybacked on another caller's
	// in-flight compute instead of computing themselves.
	Shared uint64 `json:"shared"`
	// Evictions counts entries dropped by the capacity bound, Expirations
	// entries dropped because their TTL (plus stale window) had passed.
	Evictions   uint64 `json:"evictions"`
	Expirations uint64 `json:"expirations"`
	// StaleServes counts lookups answered with an expired-but-servable
	// value; Refreshes counts background revalidations that completed
	// successfully and re-armed the entry.
	StaleServes uint64 `json:"staleServes"`
	Refreshes   uint64 `json:"refreshes"`
	// Entries is the shard's resident entry count.
	Entries int `json:"entries"`
}

// add folds o into s (Stats aggregation).
func (s *ShardStats) add(o ShardStats) {
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.Shared += o.Shared
	s.Evictions += o.Evictions
	s.Expirations += o.Expirations
	s.StaleServes += o.StaleServes
	s.Refreshes += o.Refreshes
	s.Entries += o.Entries
}

// Stats is a point-in-time snapshot of the cache counters: the per-shard
// counters summed, plus the per-shard breakdown itself (the /metrics
// endpoint labels series by shard index).
type Stats struct {
	ShardStats
	// Policy names the eviction order: always "lru" (kept on the wire
	// for clients and dashboards that read it).
	Policy string `json:"policy"`
	// Capacity is the total entry bound across all shards.
	Capacity int `json:"capacity"`
	// Shards holds each shard's own counters, indexed by shard.
	Shards []ShardStats `json:"shards"`
}

// counters is one shard's live counter set. Lock-free: the hot paths
// increment after releasing the shard mutex.
type counters struct {
	hits, misses, shared, evictions, expirations, staleServes, refreshes atomic.Uint64
}

// snapshot reads the counters into a ShardStats (Entries filled by the
// caller, which holds the shard lock).
func (c *counters) snapshot() ShardStats {
	return ShardStats{
		Hits:        c.hits.Load(),
		Misses:      c.misses.Load(),
		Shared:      c.shared.Load(),
		Evictions:   c.evictions.Load(),
		Expirations: c.expirations.Load(),
		StaleServes: c.staleServes.Load(),
		Refreshes:   c.refreshes.Load(),
	}
}

// entry is one resident key/value pair, linked into its shard's
// recency list.
type entry[V any] struct {
	key        Key
	val        V
	exp        time.Time // freshness deadline; zero = never expires
	prev, next *entry[V]
}

// shard is one independently locked slice of the key space: the resident
// entries plus their least-recently-used order, a doubly-linked list
// closed by the lru sentinel (lru.next is the most recently used entry,
// lru.prev the eviction victim).
type shard[V any] struct {
	mu    sync.Mutex
	items map[Key]*entry[V]
	lru   entry[V]
	cap   int
	n     counters
}

func (s *shard[V]) init(capacity int) {
	s.items = make(map[Key]*entry[V], capacity)
	s.lru.prev, s.lru.next = &s.lru, &s.lru
	s.cap = capacity
}

// pushFront links e in as the most recently used entry.
func (s *shard[V]) pushFront(e *entry[V]) {
	e.prev, e.next = &s.lru, s.lru.next
	e.prev.next, e.next.prev = e, e
}

// unlink removes e from the recency list.
func (s *shard[V]) unlink(e *entry[V]) {
	e.prev.next, e.next.prev = e.next, e.prev
	e.prev, e.next = nil, nil
}

// touch marks e as the most recently used entry.
func (s *shard[V]) touch(e *entry[V]) {
	s.unlink(e)
	s.pushFront(e)
}

// lookup state classification.
type lookupState int

const (
	lookupMiss lookupState = iota
	lookupFresh
	lookupStale
)

// call is one in-flight singleflight compute.
type call[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// Cache is a sharded TTL cache with per-shard LRU eviction, singleflight
// computation, stale-while-revalidate, and snapshot persistence (see
// snapshot.go). All methods are safe for concurrent use. The zero value
// is not usable; construct with New.
type Cache[V any] struct {
	shards   []shard[V]
	mask     uint64
	ttl      time.Duration
	staleFor time.Duration
	clock    func() time.Time
	capacity int

	flightMu sync.Mutex
	flight   map[Key]*call[V]
}

// New creates a cache with the given options.
func New[V any](opts Options) *Cache[V] {
	capacity := opts.Capacity
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	n := opts.Shards
	if n <= 0 {
		n = DefaultShards
	}
	// Round up to a power of two so the shard index is a mask.
	shards := 1
	for shards < n {
		shards <<= 1
	}
	perShard := (capacity + shards - 1) / shards
	if perShard < 1 {
		perShard = 1
	}
	clock := opts.Clock
	if clock == nil {
		clock = time.Now
	}
	c := &Cache[V]{
		shards:   make([]shard[V], shards),
		mask:     uint64(shards - 1),
		ttl:      opts.TTL,
		staleFor: opts.StaleFor,
		clock:    clock,
		capacity: perShard * shards,
		flight:   make(map[Key]*call[V]),
	}
	for i := range c.shards {
		c.shards[i].init(perShard)
	}
	return c
}

// Capacity returns the total entry bound across all shards.
func (c *Cache[V]) Capacity() int { return c.capacity }

// shardFor picks the shard owning k. Keys are cryptographic digests, so
// the low bytes are already uniformly distributed.
func (c *Cache[V]) shardFor(k Key) *shard[V] {
	return &c.shards[binary.LittleEndian.Uint64(k[:8])&c.mask]
}

// Get returns the cached value for k, if resident and servable. An
// expired entry still inside the stale window is served (and counted as
// a StaleServe); only Do triggers its background revalidation.
func (c *Cache[V]) Get(k Key) (V, bool) {
	v, state := c.lookup(k)
	s := c.shardFor(k)
	switch state {
	case lookupFresh:
		s.n.hits.Add(1)
	case lookupStale:
		s.n.hits.Add(1)
		s.n.staleServes.Add(1)
	default:
		s.n.misses.Add(1)
	}
	return v, state != lookupMiss
}

// lookup classifies k without touching the hit/miss counters — Do's
// double-check under the flight registration uses it so one logical
// lookup never counts as two misses (expiry is still counted, it happens
// at most once per entry).
func (c *Cache[V]) lookup(k Key) (V, lookupState) {
	s := c.shardFor(k)
	s.mu.Lock()
	e, ok := s.items[k]
	if !ok {
		s.mu.Unlock()
		var zero V
		return zero, lookupMiss
	}
	if !e.exp.IsZero() {
		now := c.clock()
		if now.After(e.exp.Add(c.staleFor)) {
			s.unlink(e)
			delete(s.items, k)
			s.mu.Unlock()
			s.n.expirations.Add(1)
			var zero V
			return zero, lookupMiss
		}
		if now.After(e.exp) {
			s.touch(e)
			v := e.val
			s.mu.Unlock()
			return v, lookupStale
		}
	}
	s.touch(e)
	v := e.val
	s.mu.Unlock()
	return v, lookupFresh
}

// Put inserts (or refreshes) k, evicting the shard's least recently used
// entry when the shard bound is exceeded.
func (c *Cache[V]) Put(k Key, v V) {
	var exp time.Time
	if c.ttl > 0 {
		exp = c.clock().Add(c.ttl)
	}
	c.put(k, v, exp)
}

// put inserts with an explicit freshness deadline (zero = never
// expires). Snapshot restore re-inserts entries with their original
// deadlines through this path.
func (c *Cache[V]) put(k Key, v V, exp time.Time) {
	s := c.shardFor(k)
	s.mu.Lock()
	if e, ok := s.items[k]; ok {
		e.val = v
		e.exp = exp
		s.touch(e)
		s.mu.Unlock()
		return
	}
	// Evict before admitting, so the victim is always a resident entry
	// and never the newcomer.
	evicted := 0
	for len(s.items) >= s.cap {
		victim := s.lru.prev
		s.unlink(victim)
		delete(s.items, victim.key)
		evicted++
	}
	e := &entry[V]{key: k, val: v, exp: exp}
	s.items[k] = e
	s.pushFront(e)
	s.mu.Unlock()
	if evicted > 0 {
		s.n.evictions.Add(uint64(evicted))
	}
}

// Do returns the cached value for k, computing and caching it on a miss.
// Concurrent Do calls for the same missing key compute once: one caller
// runs compute, the rest block and share its result. hit reports whether
// the returned value came from the cache or another caller's compute
// (false only for the caller that actually computed). A compute error is
// returned to every waiting caller and nothing is cached — a cancelled or
// failed computation never poisons the cache. A waiting caller whose ctx
// is cancelled gives up with ctx.Err() (the compute itself keeps running
// under the leader).
//
// With Options.StaleFor configured, a lookup that finds an expired entry
// still inside the stale window returns it immediately (hit=true) and
// revalidates in the background: one refresh per key at a time
// (singleflight), a successful refresh re-arms the entry, a failed or
// panicking refresh changes nothing — the stale value keeps serving
// until the window closes.
func (c *Cache[V]) Do(ctx context.Context, k Key, compute func() (V, error)) (v V, hit bool, err error) {
	s := c.shardFor(k)
	if v, state := c.lookup(k); state != lookupMiss {
		s.n.hits.Add(1)
		if state == lookupStale {
			s.n.staleServes.Add(1)
			go c.refresh(k, compute)
		}
		return v, true, nil
	}
	s.n.misses.Add(1)
	c.flightMu.Lock()
	if f, ok := c.flight[k]; ok {
		c.flightMu.Unlock()
		s.n.shared.Add(1)
		select {
		case <-f.done:
			return f.val, true, f.err
		case <-ctx.Done():
			var zero V
			return zero, false, ctx.Err()
		}
	}
	f := &call[V]{done: make(chan struct{})}
	c.flight[k] = f
	c.flightMu.Unlock()

	completed := false
	defer func() {
		// A panicking compute unwinds through here with err still nil; the
		// waiters must not mistake that for a successful zero value. The
		// panic itself keeps propagating to the leader's caller.
		if !completed && err == nil {
			err = errors.New("memo: compute panicked")
		}
		f.val, f.err = v, err
		c.flightMu.Lock()
		delete(c.flight, k)
		c.flightMu.Unlock()
		close(f.done)
	}()

	// Re-check under the flight: a previous leader may have populated the
	// entry between our lookup miss and registering the call. Uncounted —
	// this is the same logical lookup that just missed.
	if cached, state := c.lookup(k); state != lookupMiss {
		completed = true
		return cached, true, nil
	}
	v, err = compute()
	completed = true
	if err == nil {
		c.Put(k, v)
	}
	return v, false, err
}

// refresh revalidates a stale entry in the background under the
// singleflight registry: at most one refresh (or leader compute) per key
// is in flight, a successful compute re-arms the entry, and errors —
// including panics, which have no caller to propagate to here — leave
// the stale value in place.
func (c *Cache[V]) refresh(k Key, compute func() (V, error)) {
	c.flightMu.Lock()
	if _, inflight := c.flight[k]; inflight {
		c.flightMu.Unlock()
		return
	}
	f := &call[V]{done: make(chan struct{})}
	c.flight[k] = f
	c.flightMu.Unlock()

	var (
		v         V
		err       error
		refreshed bool
		completed bool
	)
	defer func() {
		if r := recover(); r != nil || !completed {
			err = errors.New("memo: refresh compute panicked")
		}
		if err == nil && refreshed {
			c.Put(k, v)
			c.shardFor(k).n.refreshes.Add(1)
		}
		f.val, f.err = v, err
		c.flightMu.Lock()
		delete(c.flight, k)
		c.flightMu.Unlock()
		close(f.done)
	}()
	// Re-check under the flight: an earlier refresh (or leader compute)
	// may have re-armed the entry between the stale serve that spawned
	// this goroutine and the flight registration — recomputing then would
	// be pure waste.
	if cached, state := c.lookup(k); state == lookupFresh {
		v, completed = cached, true
		return
	}
	v, err = compute()
	refreshed = true
	completed = true
}

// Len returns the resident entry count.
func (c *Cache[V]) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += len(s.items)
		s.mu.Unlock()
	}
	return n
}

// Stats snapshots the counters: per-shard breakdowns plus their sum.
func (c *Cache[V]) Stats() Stats {
	st := Stats{
		Policy:   "lru",
		Capacity: c.capacity,
		Shards:   make([]ShardStats, len(c.shards)),
	}
	for i := range c.shards {
		s := &c.shards[i]
		sh := s.n.snapshot()
		s.mu.Lock()
		sh.Entries = len(s.items)
		s.mu.Unlock()
		st.Shards[i] = sh
		st.ShardStats.add(sh)
	}
	return st
}
