// Package fleet scales the dsed job service horizontally: a
// Coordinator fronts N dsed workers, routing every job by consistent
// hash of its result-cache fingerprint (serve.Job.RingKey) so the same
// (app, arch, objective, strategy, seed, budget) job always lands on
// the worker whose memoized result cache is warm for it.
//
// The coordinator's job API is serve's own: it runs a serve.Server whose
// executor relays each job over the owning worker's POST /v1/run NDJSON
// stream, so every /v1 job route, streams included, works unchanged
// against either a single worker or a coordinator, with the same job
// table, error envelope and state strings. The coordinator adds only
// membership, the ring, and fleet-wide /v1/cache, /v1/metrics and
// /v1/healthz.
//
// Membership is heartbeat-based. Workers join with POST /v1/register
// (driven by the worker-side Agent), stay live with periodic
// POST /v1/heartbeat, and leave gracefully with POST /v1/deregister: a
// draining worker is off the ring immediately — new jobs route to the
// survivors — while its in-flight streams finish in place. A worker
// silent past the heartbeat timeout is declared dead and its streams are
// cancelled. A job whose stream breaks, ends without a final line, or is
// refused by a draining worker is re-dispatched to the ring's current
// owner, where the determinism invariant (every result a pure function
// of the job key) makes the recomputed runs bit-identical; run indices
// already relayed are not relayed twice.
//
// The consistent-hash Ring guarantees that adding or removing one of N
// workers remaps only ~1/N of the key space, keeping every other
// worker's cache warm through membership churn; the property tests in
// ring_test.go pin both the balance and the minimal-disruption bounds,
// and fleet_test.go proves the kill/drain behavior under fault
// injection.
package fleet
