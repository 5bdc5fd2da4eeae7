// Package memo is a sharded, capacity-bounded in-memory result cache
// with per-shard LRU eviction, singleflight de-duplication, and snapshot
// persistence.
//
// The design follows the shape of production in-memory caches (the
// samber/hot lineage): the key space is split across 2^k independently
// locked shards so concurrent Get/Put traffic from a worker pool never
// serializes on one mutex, and each shard bounds its entry count by
// evicting its least recently used entry. On top of the shards, Do
// provides singleflight semantics: concurrent callers of the same missing
// key block on one compute instead of racing N identical computations —
// exactly what a design-space-exploration service needs when identical
// jobs arrive together.
//
// Each shard keeps its entries on a recency list: a hit and a re-Put move
// the entry to the front, and an insert into a full shard first evicts
// the entry at the back. LRU is the only order: on the service's own key
// stream LFU and 2Q hit within 0.14 points of it (DESIGN.md §9.1).
// Entries never expire by the clock: the values this service caches are
// pure functions of their keys, so a value goes stale only when the code
// that computed it changes, and the caller names that code in the key
// (runner.ResultEpoch). Snapshot/Restore persist the resident entries
// through a versioned, sha256-checksummed binary format, so a restarted
// service comes back warm; corrupt or version-mismatched files load
// nothing and return an error instead of poisoning the cache.
//
// Every shard keeps its own counters (hits, misses, coalesced waiters,
// evictions); Stats sums them and exposes the per-shard breakdown for
// metrics endpoints.
//
// Keys are 32-byte digests (use KeyOf to derive one from string parts);
// values are opaque to the cache. Callers that hand out cached values to
// mutating consumers must clone on the way in and out — the cache stores
// exactly what it is given.
package memo
