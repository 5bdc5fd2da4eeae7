package runner

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"strings"
	"testing"
)

// pinnedEpoch and pinnedGoldens pin ResultEpoch together with the sha256
// of every golden file that records results. Re-recording one of them
// means the code now computes different results for unchanged
// fingerprints, so cached and snapshotted outcomes of the old code must
// stop hitting: the epoch has to move with the goldens. The
// fingerprint, ring-key, instance-digest and flag goldens record no
// results and are left out.
const pinnedEpoch = 1

var pinnedGoldens = []struct{ path, sha256 string }{
	{"../../dse/testdata/explore_many_golden.txt", "0823dcc685c98738dc25770bfd946a68d1d4bcd2fb350e0b51ceb68001314d75"},
	{"../ga/testdata/ga_golden.txt", "653befc4d2cce765b8a350bd018f0a364773fe8f12ea4810fb2871b1af95e58f"},
	{"../core/testdata/batch_golden.txt", "5bd308a3abe3b387e72d36baf348afec3ea95a2a0e3c58748886521c305d1de4"},
	{"../../cmd/dsesweep/testdata/sweep_golden.csv", "09a5564093ff40cef0bcd28a60580e71b9df8d0f3e2b2f3debc04612671cb020"},
	{"../../cmd/dsebench/testdata/bench_golden.json", "3bd2ed0a34a89ad0d9d3dcc2446b436aa42c80e8f7c07d7eb9dd805aa24679c4"},
	{"../../cmd/dsecompare/testdata/compare_golden.txt", "899d71536c8f5caa705b1d4d1caabf8668e66673347f907fbf6133c3294f376c"},
}

// TestResultEpochPinsGoldens fails when a results golden changes without
// an epoch bump (or the epoch moves without a re-pin).
func TestResultEpochPinsGoldens(t *testing.T) {
	var changed []string
	for _, g := range pinnedGoldens {
		b, err := os.ReadFile(g.path)
		if err != nil {
			t.Fatal(err)
		}
		if sum := sha256.Sum256(b); hex.EncodeToString(sum[:]) != g.sha256 {
			changed = append(changed, g.path)
		}
	}
	if len(changed) > 0 || ResultEpoch != pinnedEpoch {
		t.Fatalf("ResultEpoch is %d, pinned at %d; results goldens changed since the pin: [%s]. "+
			"A changed results golden means changed results: bump runner.ResultEpoch and re-pin "+
			"(pinnedEpoch and the sha256 of every file in pinnedGoldens).",
			ResultEpoch, pinnedEpoch, strings.Join(changed, ", "))
	}
}
