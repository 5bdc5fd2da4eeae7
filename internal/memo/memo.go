package memo

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"sync"
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

// DefaultCapacity is the entry bound New uses for a non-positive
// capacity.
const DefaultCapacity = 4096

// Stats is a point-in-time snapshot of the cache counters.
type Stats struct {
	// Hits and Misses count Get/Do lookups by outcome.
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
	// Shared counts Do callers that piggybacked on another caller's
	// in-flight compute instead of computing themselves.
	Shared uint64 `json:"shared"`
	// Evictions counts entries dropped by the capacity bound.
	Evictions uint64 `json:"evictions"`
	// Entries is the resident entry count.
	Entries int `json:"entries"`
	// Policy names the eviction order: always "lru" (kept on the wire
	// for clients and dashboards that read it).
	Policy string `json:"policy"`
	// Capacity is the entry bound.
	Capacity int `json:"capacity"`
}

// Add folds o's counters, entries and capacity into s (a fleet sums its
// workers' caches this way); Policy is left alone.
func (s *Stats) Add(o Stats) {
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.Shared += o.Shared
	s.Evictions += o.Evictions
	s.Entries += o.Entries
	s.Capacity += o.Capacity
}

// entry is one resident key/value pair, linked into the cache's recency
// list.
type entry[V any] struct {
	key        Key
	val        V
	prev, next *entry[V]
}

// call is one in-flight singleflight compute.
type call[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// Cache is a capacity-bounded LRU cache with singleflight computation
// and snapshot persistence (see snapshot.go). One mutex guards the
// entries, their recency list, the in-flight computes and the counters.
// All methods are safe for concurrent use. The zero value is not usable;
// construct with New.
type Cache[V any] struct {
	mu    sync.Mutex
	items map[Key]*entry[V]
	// lru closes the recency list: lru.next is the most recently used
	// entry, lru.prev the eviction victim.
	lru      entry[V]
	capacity int
	flight   map[Key]*call[V]

	hits, misses, shared, evictions uint64
}

// New creates a cache holding at most capacity entries (non-positive
// selects DefaultCapacity).
func New[V any](capacity int) *Cache[V] {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	c := &Cache[V]{
		items:    make(map[Key]*entry[V], capacity),
		capacity: capacity,
		flight:   make(map[Key]*call[V]),
	}
	c.lru.prev, c.lru.next = &c.lru, &c.lru
	return c
}

// pushFront links e in as the most recently used entry.
func (c *Cache[V]) pushFront(e *entry[V]) {
	e.prev, e.next = &c.lru, c.lru.next
	e.prev.next, e.next.prev = e, e
}

// unlink removes e from the recency list.
func (c *Cache[V]) unlink(e *entry[V]) {
	e.prev.next, e.next.prev = e.next, e.prev
	e.prev, e.next = nil, nil
}

// touch marks e as the most recently used entry.
func (c *Cache[V]) touch(e *entry[V]) {
	c.unlink(e)
	c.pushFront(e)
}

// lookup counts one lookup of k, touching the entry on a hit. c.mu must
// be held.
func (c *Cache[V]) lookup(k Key) (*entry[V], bool) {
	e, ok := c.items[k]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.touch(e)
	return e, true
}

// Get returns the cached value for k, if resident.
func (c *Cache[V]) Get(k Key) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.lookup(k); ok {
		return e.val, true
	}
	var zero V
	return zero, false
}

// Put inserts (or replaces) k, evicting the least recently used entry
// when the cache is full.
func (c *Cache[V]) Put(k Key, v V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.put(k, v)
}

// put is Put with c.mu held.
func (c *Cache[V]) put(k Key, v V) {
	if e, ok := c.items[k]; ok {
		e.val = v
		c.touch(e)
		return
	}
	// Evict before admitting, so the victim is always a resident entry
	// and never the newcomer.
	for len(c.items) >= c.capacity {
		victim := c.lru.prev
		c.unlink(victim)
		delete(c.items, victim.key)
		c.evictions++
	}
	e := &entry[V]{key: k, val: v}
	c.items[k] = e
	c.pushFront(e)
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
	// The lookup and the flight registration share one critical section,
	// and the leader caches its value and leaves the flight table in
	// another, so a miss here can never race a finished leader.
	c.mu.Lock()
	if e, ok := c.lookup(k); ok {
		v = e.val
		c.mu.Unlock()
		return v, true, nil
	}
	if f, ok := c.flight[k]; ok {
		c.shared++
		c.mu.Unlock()
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
	c.mu.Unlock()

	completed := false
	defer func() {
		// A panicking compute unwinds through here with err still nil; the
		// waiters must not mistake that for a successful zero value. The
		// panic itself keeps propagating to the leader's caller.
		if !completed && err == nil {
			err = errors.New("memo: compute panicked")
		}
		f.val, f.err = v, err
		c.mu.Lock()
		if err == nil {
			c.put(k, v)
		}
		delete(c.flight, k)
		c.mu.Unlock()
		close(f.done)
	}()
	v, err = compute()
	completed = true
	return v, false, err
}

// Len returns the resident entry count.
func (c *Cache[V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.items)
}

// Stats snapshots the counters.
func (c *Cache[V]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits:      c.hits,
		Misses:    c.misses,
		Shared:    c.shared,
		Evictions: c.evictions,
		Entries:   len(c.items),
		Policy:    "lru",
		Capacity:  c.capacity,
	}
}
