package memo

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestKeyOfPartBoundaries(t *testing.T) {
	if KeyOf("ab", "c") == KeyOf("a", "bc") {
		t.Fatal("length prefixing failed: shifted parts collide")
	}
	if KeyOf("a") == KeyOf("a", "") {
		t.Fatal("trailing empty part should change the key")
	}
	if KeyOf("x", "y") != KeyOf("x", "y") {
		t.Fatal("KeyOf is not deterministic")
	}
}

func TestGetPut(t *testing.T) {
	c := New[int](8)
	k := KeyOf("a")
	if _, ok := c.Get(k); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put(k, 42)
	if v, ok := c.Get(k); !ok || v != 42 {
		t.Fatalf("Get = %v, %v; want 42, true", v, ok)
	}
	c.Put(k, 43) // refresh in place
	if v, _ := c.Get(k); v != 43 {
		t.Fatalf("refresh lost: %v", v)
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
	}
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// lruOrder lists the cache's keys from the next victim to the most
// recently used entry, failing the test unless the recency list links
// exactly the resident entries.
func lruOrder(t *testing.T, c *Cache[int]) []Key {
	t.Helper()
	var order []Key
	for e := c.lru.prev; e != &c.lru; e = e.prev {
		if c.items[e.key] != e {
			t.Fatalf("listed key %x is not resident", e.key[:4])
		}
		order = append(order, e.key)
	}
	if len(order) != len(c.items) {
		t.Fatalf("recency list links %d entries, cache holds %d", len(order), len(c.items))
	}
	return order
}

// TestLRUEviction drives the cache through each point that moves the
// replacement order — hits and re-puts touch; a full cache evicts its
// least recently used entry before admitting — and checks the resulting
// order, victim first.
func TestLRUEviction(t *testing.T) {
	cases := []struct {
		name     string
		capacity int
		ops      func(c *Cache[int], ks []Key)
		order    []int // key indices, next victim first
		evicted  uint64
	}{
		{
			name:     "fresh hit touches",
			capacity: 2,
			ops: func(c *Cache[int], ks []Key) {
				c.Put(ks[0], 0)
				c.Put(ks[1], 1)
				c.Get(ks[0]) // 0 is now more recent than 1
				c.Put(ks[2], 2)
			},
			order:   []int{0, 2},
			evicted: 1,
		},
		{
			name:     "re-put and stale hit touch",
			capacity: 3,
			ops: func(c *Cache[int], ks []Key) {
				c.Put(ks[0], 0)
				c.Put(ks[1], 1)
				c.Put(ks[2], 2)
				c.Put(ks[0], 10)
				c.Get(ks[1])
			},
			order: []int{2, 0, 1},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := New[int](tc.capacity)
			ks := make([]Key, 16)
			for i := range ks {
				ks[i] = KeyOf(fmt.Sprintf("k%d", i))
			}
			tc.ops(c, ks)
			got := lruOrder(t, c)
			if len(got) != len(tc.order) {
				t.Fatalf("%d entries resident, want %d", len(got), len(tc.order))
			}
			for i, want := range tc.order {
				if got[i] != ks[want] {
					t.Fatalf("order position %d holds %x, want key %d", i, got[i][:4], want)
				}
			}
			if st := c.Stats(); st.Evictions != tc.evicted {
				t.Fatalf("evictions %d, want %d", st.Evictions, tc.evicted)
			}
		})
	}
}

// TestPolicyRemoveConsistency drives the cache's LRU list directly
// through admit/touch/remove/victim cycles, checking that removal of
// arbitrary keys never corrupts victim selection.
func TestPolicyRemoveConsistency(t *testing.T) {
	t.Run("lru", func(t *testing.T) {
		c := New[int](8)
		ks := make([]Key, 8)
		for i := range ks {
			ks[i] = KeyOf(fmt.Sprintf("k%d", i))
		}
		for i, k := range ks {
			e := &entry[int]{key: k, val: i}
			c.items[k] = e
			c.pushFront(e)
		}
		for i, k := range ks {
			for j := 0; j < i; j++ {
				c.touch(c.items[k])
			}
		}
		// Remove half the keys explicitly.
		for i := 0; i < 4; i++ {
			k := ks[i*2]
			c.unlink(c.items[k])
			delete(c.items, k)
		}
		lruOrder(t, c) // the list still links exactly the resident entries
		// Victims must drain exactly the remaining keys, least recently
		// touched first, each once.
		want := []int{1, 3, 5, 7}
		for n := 0; c.lru.prev != &c.lru; n++ {
			victim := c.lru.prev
			if n >= len(want) {
				t.Fatalf("victim %x beyond the %d remaining keys", victim.key[:4], len(want))
			}
			if victim.key != ks[want[n]] {
				t.Fatalf("victim %d is %x, want key %d", n, victim.key[:4], want[n])
			}
			c.unlink(victim)
			delete(c.items, victim.key)
		}
		if len(c.items) != 0 {
			t.Fatalf("%d entries left after draining the list", len(c.items))
		}
	})
}

// TestStatsReportPolicy checks that the policy name and the capacity
// surface through Stats.
func TestStatsReportPolicy(t *testing.T) {
	st := New[int](64).Stats()
	if st.Policy != "lru" {
		t.Fatalf("policy = %q", st.Policy)
	}
	if st.Capacity != 64 {
		t.Fatalf("capacity = %d, want 64", st.Capacity)
	}
}

// TestCacheHoldsItsCapacity: a cache takes exactly as many distinct keys
// as its capacity before it evicts, and then evicts the least recently
// used key of the whole cache.
func TestCacheHoldsItsCapacity(t *testing.T) {
	for _, capacity := range []int{8, 100} {
		t.Run(fmt.Sprint(capacity), func(t *testing.T) {
			c := New[int](capacity)
			if got := c.Stats().Capacity; got != capacity {
				t.Fatalf("capacity %d, want %d", got, capacity)
			}
			ks := make([]Key, capacity+1)
			for i := range ks {
				ks[i] = KeyOf(fmt.Sprintf("k%d", i))
			}
			for i := 0; i < capacity; i++ {
				c.Put(ks[i], i)
			}
			if st := c.Stats(); st.Evictions != 0 || st.Entries != capacity {
				t.Fatalf("after %d puts: %d evictions, %d entries; want 0, %d", capacity, st.Evictions, st.Entries, capacity)
			}
			// Touch every key but the second, so it is the one victim.
			for i := 0; i < capacity; i++ {
				if i != 1 {
					c.Get(ks[i])
				}
			}
			c.Put(ks[capacity], capacity)
			if st := c.Stats(); st.Evictions != 1 || st.Entries != capacity {
				t.Fatalf("after one more put: %d evictions, %d entries; want 1, %d", st.Evictions, st.Entries, capacity)
			}
			for i, k := range ks {
				if _, ok := c.Get(k); ok == (i == 1) {
					t.Fatalf("key %d resident = %v, want only key 1 evicted", i, ok)
				}
			}
		})
	}
}

// TestLRUReplayGolden replays a fixed Zipf-skewed stream of 5,000 draws
// over 1,000 keys through a 480-entry cache, mixing Get, Do and
// re-Put, with a last phase of Get-or-Put and re-Put only. The counters
// and the snapshot bytes (which keys survived, with which values) are
// pinned, so any change to the replacement order or the touch points
// shows.
func TestLRUReplayGolden(t *testing.T) {
	c := New[int](480)
	keys := make([]Key, 1000)
	for i := range keys {
		keys[i] = KeyOf(fmt.Sprintf("k%d", i))
	}
	zipf := rand.NewZipf(rand.New(rand.NewSource(1)), 1.2, 1, uint64(len(keys)-1))
	ctx := context.Background()
	for i := 0; i < 5000; i++ {
		k := keys[zipf.Uint64()]
		if i >= 4000 {
			if i%2 == 1 {
				c.Put(k, i)
			} else if _, ok := c.Get(k); !ok {
				c.Put(k, i)
			}
			continue
		}
		switch i % 3 {
		case 0:
			if _, ok := c.Get(k); !ok {
				c.Put(k, i)
			}
		case 1:
			if _, _, err := c.Do(ctx, k, func() (int, error) { return i, nil }); err != nil {
				t.Fatal(err)
			}
		case 2:
			c.Put(k, i)
		}
	}
	var snap bytes.Buffer
	if err := c.Snapshot(&snap, encInt); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	got := fmt.Sprintf("hits %d misses %d evictions %d entries %d snapshot %x",
		st.Hits, st.Misses, st.Evictions, st.Entries, sha256.Sum256(snap.Bytes()))
	const want = "hits 2785 misses 382 evictions 86 entries 480 snapshot 3d0b2de0cee00c9d5d6b236d5b35f94fe72ad92ad6d5e7b9f78151f9247d34d2"
	if got != want {
		t.Fatalf("replay changed:\n  got  %s\n  want %s", got, want)
	}
}

// TestSingleflight is the contract test of the tentpole: N concurrent
// requests for one missing key run exactly one compute.
func TestSingleflight(t *testing.T) {
	c := New[int](16)
	k := KeyOf("job")
	const n = 32
	var computes atomic.Int32
	gate := make(chan struct{})

	var wg sync.WaitGroup
	results := make([]int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, _, err := c.Do(context.Background(), k, func() (int, error) {
				computes.Add(1)
				<-gate // hold every other goroutine in the waiter path
				return 99, nil
			})
			if err != nil {
				t.Errorf("Do: %v", err)
			}
			results[i] = v
		}(i)
	}
	// Let the leader enter compute and the rest pile up, then release.
	time.Sleep(20 * time.Millisecond)
	close(gate)
	wg.Wait()

	if got := computes.Load(); got != 1 {
		t.Fatalf("compute ran %d times, want 1", got)
	}
	for i, v := range results {
		if v != 99 {
			t.Fatalf("caller %d got %d, want 99", i, v)
		}
	}
	if v, ok := c.Get(k); !ok || v != 99 {
		t.Fatalf("value not cached after singleflight: %v %v", v, ok)
	}
}

func TestDoErrorNotCached(t *testing.T) {
	c := New[int](8)
	k := KeyOf("fail")
	boom := errors.New("boom")
	calls := 0
	_, _, err := c.Do(context.Background(), k, func() (int, error) { calls++; return 0, boom })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if _, ok := c.Get(k); ok {
		t.Fatal("failed compute was cached")
	}
	// The next Do computes again (and may succeed).
	v, hit, err := c.Do(context.Background(), k, func() (int, error) { calls++; return 5, nil })
	if err != nil || hit || v != 5 {
		t.Fatalf("retry = %v, %v, %v", v, hit, err)
	}
	if calls != 2 {
		t.Fatalf("calls = %d, want 2", calls)
	}
}

// TestDoPanicPropagatesErrorToWaiters pins the panic contract: a
// panicking compute re-panics in the leader, while waiters receive an
// error — never a successful zero value — and nothing is cached.
func TestDoPanicPropagatesErrorToWaiters(t *testing.T) {
	c := New[int](8)
	k := KeyOf("boom")
	leaderIn := make(chan struct{})
	release := make(chan struct{})
	go func() {
		defer func() {
			if recover() == nil {
				t.Error("leader's panic did not propagate")
			}
		}()
		c.Do(context.Background(), k, func() (int, error) {
			close(leaderIn)
			<-release
			panic("compute exploded")
		})
	}()
	<-leaderIn
	waiterErr := make(chan error, 1)
	go func() {
		_, _, err := c.Do(context.Background(), k, func() (int, error) {
			t.Error("waiter computed while the flight was registered")
			return 0, nil
		})
		waiterErr <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the waiter join the flight
	close(release)
	if err := <-waiterErr; err == nil {
		t.Fatal("waiter got a nil error from a panicked compute")
	}
	if _, ok := c.Get(k); ok {
		t.Fatal("panicked compute left a cached value")
	}
}

func TestDoWaiterCancellation(t *testing.T) {
	c := New[int](8)
	k := KeyOf("slow")
	gate := make(chan struct{})
	leaderIn := make(chan struct{})
	go func() {
		c.Do(context.Background(), k, func() (int, error) {
			close(leaderIn)
			<-gate
			return 1, nil
		})
	}()
	<-leaderIn
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := c.Do(ctx, k, func() (int, error) { t.Error("waiter computed"); return 0, nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter err = %v", err)
	}
	close(gate)
}

// TestExactCounterAccounting is the satellite's accounting test: with a
// gated compute, every counter transition is forced into a known order
// and asserted exactly. Run under -race this also exercises the
// concurrent counter paths.
func TestExactCounterAccounting(t *testing.T) {
	c := New[int](2)
	k := KeyOf("counted")

	// Phase 1: one leader, K waiters coalesce on the same missing key.
	const waiters = 8
	entered := make(chan struct{})
	gate := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c.Do(context.Background(), k, func() (int, error) {
			close(entered)
			<-gate
			return 42, nil
		})
	}()
	<-entered // the leader is inside compute; the entry does not exist yet
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, hit, err := c.Do(context.Background(), k, func() (int, error) {
				t.Error("waiter computed")
				return 0, nil
			})
			if err != nil || !hit || v != 42 {
				t.Errorf("waiter got %d, hit=%v, err=%v", v, hit, err)
			}
		}()
	}
	// Wait until every waiter has registered on the flight (each counts
	// one miss and one shared before blocking).
	deadline := time.Now().Add(10 * time.Second)
	for c.Stats().Shared != waiters {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d waiters coalesced", c.Stats().Shared, waiters)
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()

	st := c.Stats()
	if st.Misses != 1+waiters {
		t.Fatalf("misses = %d, want %d (leader + every coalesced waiter missed first)", st.Misses, 1+waiters)
	}
	if st.Shared != waiters {
		t.Fatalf("shared = %d, want %d", st.Shared, waiters)
	}
	if st.Hits != 0 {
		t.Fatalf("hits = %d, want 0 before any resident lookup", st.Hits)
	}

	// Phase 2: three resident lookups are three hits.
	for i := 0; i < 3; i++ {
		if _, hit, _ := c.Do(context.Background(), k, nil); !hit {
			t.Fatal("resident lookup missed")
		}
	}
	st = c.Stats()
	if st.Hits != 3 || st.Misses != 1+waiters {
		t.Fatalf("after hits: %+v", st)
	}

	// Phase 3: capacity 2 — inserting two more keys evicts exactly one
	// entry.
	c.Put(KeyOf("b"), 2)
	c.Put(KeyOf("c"), 3)
	st = c.Stats()
	if st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", st.Evictions)
	}
	if st.Entries != 2 {
		t.Fatalf("entries = %d, want 2", st.Entries)
	}
}

// TestShardEvictionRace hammers a small cache from many goroutines; run
// under -race it checks eviction under concurrent Get, Put and Do.
func TestShardEvictionRace(t *testing.T) {
	c := New[int](32)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := KeyOf(fmt.Sprint(i % 100))
				switch i % 3 {
				case 0:
					c.Put(k, i)
				case 1:
					c.Get(k)
				default:
					c.Do(context.Background(), k, func() (int, error) { return i, nil })
				}
			}
		}(g)
	}
	wg.Wait()
	if c.Len() > 32 {
		t.Fatalf("cache overflowed its bound: %d entries", c.Len())
	}
}

func TestCapacityDistribution(t *testing.T) {
	// 1000 distinct digest keys through a 64-entry cache must never
	// exceed its bound, and it must fill it.
	c := New[int](64)
	for i := 0; i < 1000; i++ {
		c.Put(KeyOf(fmt.Sprint(i)), i)
	}
	if c.Len() != 64 {
		t.Fatalf("Len = %d, want 64", c.Len())
	}
	if ev := c.Stats().Evictions; ev != 1000-64 {
		t.Fatalf("evictions = %d, want %d", ev, 1000-64)
	}
}
