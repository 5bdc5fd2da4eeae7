package memo

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"sync"
	"sync/atomic"
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

// Options configures a Cache. Entries never expire by the clock; they
// leave only by eviction. A caller whose values can go stale names what
// makes them stale in the key, as the runner's result cache does with
// runner.ResultEpoch.
type Options struct {
	// Capacity bounds the total entry count across all shards (each shard
	// holds Capacity/Shards entries, minimum one). Non-positive selects
	// DefaultCapacity.
	Capacity int
	// Shards is the shard count, rounded up to a power of two.
	// Non-positive selects DefaultShards.
	Shards int
}

// ShardStats is one shard's point-in-time counter snapshot.
type ShardStats struct {
	// Hits and Misses count Get/Do lookups by outcome.
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
	// Shared counts Do callers that piggybacked on another caller's
	// in-flight compute instead of computing themselves.
	Shared uint64 `json:"shared"`
	// Evictions counts entries dropped by the capacity bound.
	Evictions uint64 `json:"evictions"`
	// Entries is the shard's resident entry count.
	Entries int `json:"entries"`
}

// Add folds o into s: the one list of counters that every aggregation
// (the shard sum in Stats, a fleet's sum over its workers) goes through.
func (s *ShardStats) Add(o ShardStats) {
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.Shared += o.Shared
	s.Evictions += o.Evictions
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
	hits, misses, shared, evictions atomic.Uint64
}

// snapshot reads the counters into a ShardStats (Entries filled by the
// caller, which holds the shard lock).
func (c *counters) snapshot() ShardStats {
	return ShardStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Shared:    c.shared.Load(),
		Evictions: c.evictions.Load(),
	}
}

// entry is one resident key/value pair, linked into its shard's
// recency list.
type entry[V any] struct {
	key        Key
	val        V
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

// call is one in-flight singleflight compute.
type call[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// Cache is a sharded cache with per-shard LRU eviction, singleflight
// computation, and snapshot persistence (see snapshot.go). All methods
// are safe for concurrent use. The zero value is not usable; construct
// with New.
type Cache[V any] struct {
	shards   []shard[V]
	mask     uint64
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
	c := &Cache[V]{
		shards:   make([]shard[V], shards),
		mask:     uint64(shards - 1),
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

// Get returns the cached value for k, if resident.
func (c *Cache[V]) Get(k Key) (V, bool) {
	v, ok := c.lookup(k)
	s := c.shardFor(k)
	if ok {
		s.n.hits.Add(1)
	} else {
		s.n.misses.Add(1)
	}
	return v, ok
}

// lookup finds k and touches it, without touching the hit/miss counters
// — Do's double-check under the flight registration uses it so one
// logical lookup never counts as two misses.
func (c *Cache[V]) lookup(k Key) (V, bool) {
	s := c.shardFor(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.items[k]
	if !ok {
		var zero V
		return zero, false
	}
	s.touch(e)
	return e.val, true
}

// Put inserts (or replaces) k, evicting the shard's least recently used
// entry when the shard bound is exceeded.
func (c *Cache[V]) Put(k Key, v V) {
	s := c.shardFor(k)
	s.mu.Lock()
	if e, ok := s.items[k]; ok {
		e.val = v
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
	e := &entry[V]{key: k, val: v}
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
func (c *Cache[V]) Do(ctx context.Context, k Key, compute func() (V, error)) (v V, hit bool, err error) {
	s := c.shardFor(k)
	if v, ok := c.lookup(k); ok {
		s.n.hits.Add(1)
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
	if cached, ok := c.lookup(k); ok {
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
		st.ShardStats.Add(sh)
	}
	return st
}
