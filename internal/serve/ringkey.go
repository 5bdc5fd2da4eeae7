package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"

	"repro/internal/runner"
)

// RingKey derives the job's fleet routing key — the job-level
// result-cache fingerprint (runner.FleetKey over the factory, step
// budget, base seed, and run count the spec resolved to when it was
// accepted). The fleet coordinator consistent-hashes this key onto the
// worker ring, so the same (app, arch, objective, strategy, seed,
// budget) job always routes to the worker holding its memoized runs.
//
// A job that has no cacheable identity (impossible over the wire today —
// hooks are not serializable — but kept total) falls back to hashing the
// spec's canonical JSON: routing stays deterministic, it just stops
// coinciding with the cache key.
func (j Job) RingKey() (string, error) {
	if key, ok := runner.FleetKey(j.res.factory, j.res.maxSteps, j.Spec.Seed, j.res.runs); ok {
		return key, nil
	}
	raw, err := json.Marshal(j.Spec)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:]), nil
}
