// Package memo is a capacity-bounded in-memory result cache with LRU
// eviction, singleflight de-duplication, and snapshot persistence.
//
// One mutex guards the whole cache: the entries, their recency list, the
// table of in-flight computes and the counters. A hit holds it for one
// map lookup and one list splice, which is nothing beside the request it
// serves, and a miss already needs the flight table; so the cache keeps
// one lock and one LRU over its whole capacity (DESIGN.md §9.1 measures
// the sharded layout it replaced). On top of it, Do provides singleflight
// semantics: concurrent callers of the same missing key block on one
// compute instead of racing N identical computations — exactly what a
// design-space-exploration service needs when identical jobs arrive
// together.
//
// The cache keeps its entries on a recency list: a hit and a re-Put move
// the entry to the front, and an insert into a full cache first evicts
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
// Stats reports the counters (hits, misses, coalesced waiters,
// evictions) with the resident count and the capacity; Stats.Add sums
// several caches' reports.
//
// Keys are 32-byte digests (use KeyOf to derive one from string parts);
// values are opaque to the cache. Callers that hand out cached values to
// mutating consumers must clone on the way in and out — the cache stores
// exactly what it is given.
package memo
