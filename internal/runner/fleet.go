package runner

import (
	"strconv"

	"repro/internal/memo"
	"repro/internal/search"
)

// FleetKey derives a job batch's fleet routing key: the hex digest of
// (application digest, architecture digest, strategy/objective
// fingerprint, step budget, base seed, run count) — exactly the
// identity under which the batch's per-run results are memoized
// (StrategyKey), lifted from one run to the whole job. Routing a job
// by this key with consistent hashing therefore lands every
// resubmission of the same (app, arch, objective, strategy, seed,
// budget) job on the shard whose result cache is warm for it.
//
// ok is false for factories carrying function-typed hooks, which are
// uncacheable and so have no stable identity to route on; callers fall
// back to routing on the raw spec.
func FleetKey(f *search.Factory, maxSteps int, baseSeed int64, runs int) (key string, ok bool) {
	fp, ok := f.Fingerprint()
	if !ok {
		return "", false
	}
	appD, archD := f.Digests()
	k := memo.KeyOf(
		appD, archD, fp,
		strconv.Itoa(maxSteps),
		strconv.FormatInt(baseSeed, 10),
		strconv.Itoa(runs),
	)
	return k.Hex(), true
}
