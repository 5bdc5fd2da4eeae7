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
	c := New[int](Options{Capacity: 8, Shards: 2})
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

// lruOrder lists shard 0's keys from the next victim to the most
// recently used entry, failing the test unless the recency list links
// exactly the resident entries.
func lruOrder(t *testing.T, c *Cache[int]) []Key {
	t.Helper()
	s := &c.shards[0]
	var order []Key
	for e := s.lru.prev; e != &s.lru; e = e.prev {
		if s.items[e.key] != e {
			t.Fatalf("listed key %x is not resident", e.key[:4])
		}
		order = append(order, e.key)
	}
	if len(order) != len(s.items) {
		t.Fatalf("recency list links %d entries, shard holds %d", len(order), len(s.items))
	}
	return order
}

// TestLRUEviction drives one shard through each point that moves the
// replacement order — fresh hits, stale hits and re-puts touch; expiry
// unlinks; a full shard evicts its least recently used entry before
// admitting — and checks the resulting order, victim first.
func TestLRUEviction(t *testing.T) {
	const ttl = 100 * time.Second
	cases := []struct {
		name     string
		capacity int
		ops      func(c *Cache[int], clock *fakeClock, ks []Key)
		order    []int // key indices, next victim first
		evicted  uint64
		expired  uint64
	}{
		{
			name:     "fresh hit touches",
			capacity: 2,
			ops: func(c *Cache[int], clock *fakeClock, ks []Key) {
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
			ops: func(c *Cache[int], clock *fakeClock, ks []Key) {
				c.Put(ks[0], 0)
				c.Put(ks[1], 1)
				c.Put(ks[2], 2)
				c.Put(ks[0], 10)
				clock.Advance(ttl + time.Second) // every entry is stale now
				c.Get(ks[1])
			},
			order: []int{2, 0, 1},
		},
		{
			// Half the entries leave by expiry; the survivors, touched
			// in a fixed pattern, must then be evicted in recency order
			// and the freed slots must fill without evicting.
			name:     "expiry unlinks then eviction drains survivors",
			capacity: 8,
			ops: func(c *Cache[int], clock *fakeClock, ks []Key) {
				for i := 0; i < 8; i += 2 {
					c.Put(ks[i], i)
				}
				clock.Advance(ttl / 2)
				for i := 1; i < 8; i += 2 {
					c.Put(ks[i], i)
				}
				c.Get(ks[3])
				c.Get(ks[1])
				// Past the even keys' stale window, inside the odd keys' TTL.
				clock.Advance(ttl * 4 / 5)
				for i := 0; i < 8; i += 2 {
					c.Get(ks[i]) // expires the entry
				}
				for i := 8; i < 14; i++ {
					c.Put(ks[i], i)
				}
			},
			order:   []int{3, 1, 8, 9, 10, 11, 12, 13},
			evicted: 2, // 5, then 7
			expired: 4,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			clock := newFakeClock()
			c := New[int](Options{Capacity: tc.capacity, Shards: 1, TTL: ttl, StaleFor: ttl / 4, Clock: clock.Now})
			ks := make([]Key, 16)
			for i := range ks {
				ks[i] = KeyOf(fmt.Sprintf("k%d", i))
			}
			tc.ops(c, clock, ks)
			got := lruOrder(t, c)
			if len(got) != len(tc.order) {
				t.Fatalf("%d entries resident, want %d", len(got), len(tc.order))
			}
			for i, want := range tc.order {
				if got[i] != ks[want] {
					t.Fatalf("order position %d holds %x, want key %d", i, got[i][:4], want)
				}
			}
			st := c.Stats()
			if st.Evictions != tc.evicted || st.Expirations != tc.expired {
				t.Fatalf("evictions %d, expirations %d; want %d, %d", st.Evictions, st.Expirations, tc.evicted, tc.expired)
			}
		})
	}
}

// TestPolicyRemoveConsistency drives a shard's LRU list directly through
// admit/touch/remove/victim cycles, checking that removal of arbitrary
// keys never corrupts victim selection.
func TestPolicyRemoveConsistency(t *testing.T) {
	t.Run("lru", func(t *testing.T) {
		c := New[int](Options{Capacity: 8, Shards: 1})
		s := &c.shards[0]
		ks := make([]Key, 8)
		for i := range ks {
			ks[i] = KeyOf(fmt.Sprintf("k%d", i))
		}
		for i, k := range ks {
			e := &entry[int]{key: k, val: i}
			s.items[k] = e
			s.pushFront(e)
		}
		for i, k := range ks {
			for j := 0; j < i; j++ {
				s.touch(s.items[k])
			}
		}
		// Remove half the keys explicitly.
		for i := 0; i < 4; i++ {
			k := ks[i*2]
			s.unlink(s.items[k])
			delete(s.items, k)
		}
		lruOrder(t, c) // the list still links exactly the resident entries
		// Victims must drain exactly the remaining keys, least recently
		// touched first, each once.
		want := []int{1, 3, 5, 7}
		for n := 0; s.lru.prev != &s.lru; n++ {
			victim := s.lru.prev
			if n >= len(want) {
				t.Fatalf("victim %x beyond the %d remaining keys", victim.key[:4], len(want))
			}
			if victim.key != ks[want[n]] {
				t.Fatalf("victim %d is %x, want key %d", n, victim.key[:4], want[n])
			}
			s.unlink(victim)
			delete(s.items, victim.key)
		}
		if len(s.items) != 0 {
			t.Fatalf("%d entries left after draining the list", len(s.items))
		}
	})
}

// TestStatsReportPolicy checks the policy name, capacity and shard count
// surface through Stats.
func TestStatsReportPolicy(t *testing.T) {
	st := New[int](Options{Capacity: 64, Shards: 4}).Stats()
	if st.Policy != "lru" {
		t.Fatalf("policy = %q", st.Policy)
	}
	if st.Capacity < 64 {
		t.Fatalf("capacity = %d", st.Capacity)
	}
	if len(st.Shards) != 4 {
		t.Fatalf("shards = %d", len(st.Shards))
	}
}

// TestLRUReplayGolden replays a fixed Zipf-skewed stream of 5,000 draws
// over 1,000 keys through a 480-entry, 16-shard cache, mixing Get, Do and
// re-Put, then runs a phase in which a fake clock advances so entries go
// stale and expire. The counters and the snapshot bytes (which keys
// survived, with which values and deadlines) are pinned, so any change
// to the replacement order, the touch points or the expiry path shows.
func TestLRUReplayGolden(t *testing.T) {
	clock := newFakeClock()
	c := New[int](Options{Capacity: 480, TTL: 300 * time.Second, StaleFor: 200 * time.Second, Clock: clock.Now})
	keys := make([]Key, 1000)
	for i := range keys {
		keys[i] = KeyOf(fmt.Sprintf("k%d", i))
	}
	zipf := rand.NewZipf(rand.New(rand.NewSource(1)), 1.2, 1, uint64(len(keys)-1))
	ctx := context.Background()
	for i := 0; i < 5000; i++ {
		k := keys[zipf.Uint64()]
		if i >= 4000 {
			// The TTL phase. Do would revalidate a stale entry on a
			// background goroutine, so lookups here use Get.
			clock.Advance(time.Second)
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
	got := fmt.Sprintf("hits %d misses %d evictions %d expirations %d stale %d entries %d snapshot %x",
		st.Hits, st.Misses, st.Evictions, st.Expirations, st.StaleServes, st.Entries, sha256.Sum256(snap.Bytes()))
	const want = "hits 2738 misses 429 evictions 106 expirations 40 stale 28 entries 472 snapshot 258fcb746e2bfc624bcf7b4df1bd85eabd06efa17673e3f0f42c3043446b809e"
	if got != want {
		t.Fatalf("replay changed:\n  got  %s\n  want %s", got, want)
	}
}

func TestTTLExpiry(t *testing.T) {
	now := time.Unix(1000, 0)
	var mu sync.Mutex
	clock := func() time.Time { mu.Lock(); defer mu.Unlock(); return now }
	c := New[int](Options{Capacity: 8, TTL: time.Minute, Clock: clock})
	k := KeyOf("x")
	c.Put(k, 7)
	if _, ok := c.Get(k); !ok {
		t.Fatal("fresh entry missing")
	}
	mu.Lock()
	now = now.Add(2 * time.Minute)
	mu.Unlock()
	if _, ok := c.Get(k); ok {
		t.Fatal("expired entry returned")
	}
	if exp := c.Stats().Expirations; exp != 1 {
		t.Fatalf("expirations = %d, want 1", exp)
	}
	if c.Len() != 0 {
		t.Fatalf("expired entry still resident")
	}
}

// TestSingleflight is the contract test of the tentpole: N concurrent
// requests for one missing key run exactly one compute.
func TestSingleflight(t *testing.T) {
	c := New[int](Options{Capacity: 16})
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
	c := New[int](Options{Capacity: 8})
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
	c := New[int](Options{Capacity: 8})
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
	c := New[int](Options{Capacity: 8})
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

// TestShardEvictionRace hammers a small cache from many goroutines; run
// under -race this is the satellite's shard-eviction concurrency test.
func TestShardEvictionRace(t *testing.T) {
	c := New[int](Options{Capacity: 32, Shards: 4, TTL: time.Millisecond})
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
	// 1000 distinct digest keys across a 64-entry, 8-shard cache must
	// never exceed the global bound.
	c := New[int](Options{Capacity: 64, Shards: 8})
	for i := 0; i < 1000; i++ {
		c.Put(KeyOf(fmt.Sprint(i)), i)
	}
	if c.Len() > 64 {
		t.Fatalf("Len = %d, want <= 64", c.Len())
	}
	if c.Stats().Evictions == 0 {
		t.Fatal("no evictions recorded")
	}
}
