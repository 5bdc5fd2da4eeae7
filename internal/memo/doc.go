// Package memo is a sharded, capacity-bounded, optionally TTL'd
// in-memory result cache with per-shard LRU eviction, singleflight
// de-duplication, stale-while-revalidate, and snapshot persistence.
//
// The design follows the shape of production in-memory caches (the
// samber/hot lineage): the key space is split across 2^k independently
// locked shards so concurrent Get/Put traffic from a worker pool never
// serializes on one mutex, each shard bounds its entry count by evicting
// its least recently used entry, and entries may carry an expiry deadline
// checked lazily on access. On top of the shards, Do provides singleflight
// semantics: concurrent callers of the same missing key block on one
// compute instead of racing N identical computations — exactly what a
// design-space-exploration service needs when identical jobs arrive
// together.
//
// Each shard keeps its entries on a recency list: a hit (fresh or stale)
// and a re-Put move the entry to the front, expiry unlinks it, and an
// insert into a full shard first evicts the entry at the back. LRU is the
// only order: on the service's own key stream LFU and 2Q hit within 0.14
// points of it (DESIGN.md §9.1). With Options.StaleFor set, an expired entry
// keeps serving for that window while one background singleflight
// refresh revalidates it — a popular key never blocks on recompute.
// Snapshot/Restore persist the resident entries through a versioned,
// sha256-checksummed binary format, so a restarted service comes back
// warm; corrupt or version-mismatched files load nothing and return an
// error instead of poisoning the cache.
//
// Every shard keeps its own counters (hits, misses, coalesced waiters,
// evictions, expirations, stale serves, refreshes); Stats sums them and
// exposes the per-shard breakdown for metrics endpoints.
//
// Keys are 32-byte digests (use KeyOf to derive one from string parts);
// values are opaque to the cache. Callers that hand out cached values to
// mutating consumers must clone on the way in and out — the cache stores
// exactly what it is given.
package memo
