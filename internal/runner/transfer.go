package runner

import "repro/internal/search"

// Transfer warm-start: the result cache doubles as a donor index. Every
// successful strategy-engine run over (app, arch) — whatever its seed,
// budget, strategy or objective — is offered as a potential donor for
// later jobs on the same instance pair. WithCache with
// CacheConfig.Transfer looks the best donor up and injects its solution
// into the factory as the scheduler's initial incumbent, before it
// derives the cache keys. The donor's memo key is folded into the
// receiving factory's fingerprint, so a warm-started run caches under a
// distinct key and stays a pure function of its fingerprinted inputs;
// with no donor (or without Transfer) the fingerprint is byte-identical
// to pre-transfer releases.

// donorEntry is one instance pair's current best donor.
type donorEntry struct {
	key  string
	warm bool // the outcome was itself transfer-seeded
	out  *Outcome
}

// offerDonor records out as a donor candidate for the instance pair.
// The index keeps the minimum-cost donor; exact cost ties prefer cold
// (non-transfer-seeded) outcomes, then the lexicographically smaller
// memo key, so the winner is a pure function of the offered set —
// independent of offer order (and thus of worker count and scheduling).
// The cold-beats-warm tie rule is what makes repeated identical transfer
// submissions a fixed point: a warm run that merely *matches* its donor
// would otherwise displace it (every warm key is new — the donor key is
// part of it), changing the next submission's fingerprint and forcing a
// recomputation; a warm run that strictly improves still takes over.
// Outcomes without a mapping or a scalarized cost are not donor material.
func (rc *ResultCache) offerDonor(appD, archD, key string, out *Outcome) {
	if rc == nil || out == nil || out.Best == nil || !out.HasCost || key == "" {
		return
	}
	warm := out.Sched != nil && out.Sched.TransferKey != ""
	idx := appD + "|" + archD
	rc.donorMu.Lock()
	defer rc.donorMu.Unlock()
	if cur, ok := rc.donors[idx]; ok {
		if out.Cost > cur.out.Cost ||
			(out.Cost == cur.out.Cost && (warm && !cur.warm || warm == cur.warm && key >= cur.key)) {
			return
		}
	}
	if rc.donors == nil {
		rc.donors = make(map[string]donorEntry)
	}
	rc.donors[idx] = donorEntry{key: key, warm: warm, out: cloneOutcome(out)}
}

// Donor returns the best known donor outcome for the (application
// digest, architecture digest) pair: its memo key, a private copy of the
// outcome, and whether one exists. A nil cache has no donors.
func (rc *ResultCache) Donor(appDigest, archDigest string) (string, *Outcome, bool) {
	if rc == nil {
		return "", nil, false
	}
	rc.donorMu.Lock()
	defer rc.donorMu.Unlock()
	e, ok := rc.donors[appDigest+"|"+archDigest]
	if !ok {
		return "", nil, false
	}
	return e.key, cloneOutcome(e.out), true
}

// DonorCount reports the number of instance pairs with a recorded donor.
func (rc *ResultCache) DonorCount() int {
	if rc == nil {
		return 0
	}
	rc.donorMu.Lock()
	defer rc.donorMu.Unlock()
	return len(rc.donors)
}

// applyTransfer injects the best available donor for the factory's
// instance pair as a warm start, returning whether one was installed. It
// runs before StrategyKey so the donor key is part of the run's
// fingerprint — and therefore its cache key. A nil cache, a missing
// donor, or a non-warmable strategy kind leaves the factory untouched
// (false).
func applyTransfer(f *search.Factory, rc *ResultCache) bool {
	key, out, ok := rc.Donor(f.App().Digest(), f.Arch().Digest())
	if !ok || out == nil || out.Best == nil || !out.HasCost {
		return false
	}
	return f.SetWarmStart(&search.WarmStart{
		Key:   key,
		Cost:  out.Cost,
		Best:  out.Best,
		Eval:  out.Eval,
		Front: out.Front,
	})
}
