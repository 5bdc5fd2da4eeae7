package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"

	"repro/internal/runner"
)

// RingKey validates a job spec and derives its fleet routing key — the
// job-level result-cache fingerprint (runner.FleetKey over the resolved
// factory, step budget, base seed, and run count). The fleet
// coordinator consistent-hashes this key onto the worker ring, so the
// same (app, arch, objective, strategy, seed, budget) job always routes
// to the worker holding its memoized runs.
//
// A spec that resolves but has no cacheable identity (impossible over
// the wire today — hooks are not serializable — but kept total) falls
// back to hashing the spec's canonical JSON: routing stays
// deterministic, it just stops coinciding with the cache key.
func RingKey(spec *JobSpec) (string, error) {
	res, err := resolve(spec)
	if err != nil {
		return "", err
	}
	if key, ok := runner.FleetKey(res.factory, res.maxSteps, spec.Seed, res.runs); ok {
		return key, nil
	}
	raw, err := json.Marshal(spec)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:]), nil
}
