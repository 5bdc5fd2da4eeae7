package search

import (
	"bufio"
	"context"
	"math/rand"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/model"
)

// TestRegistryRoundTrip: every registered name round-trips through the
// factory and the fingerprint — the registry is the single source of
// truth, so a kind that registers but cannot build or fingerprint is a
// bug caught here, not at a user's first run.
func TestRegistryRoundTrip(t *testing.T) {
	app := apps.JPEG(rand.New(rand.NewSource(77)))
	arch := apps.MotionArch(2000, apps.DefaultMotionConfig())
	seen := map[string]string{}
	for _, name := range Names() {
		f, err := NewFactory(name, app, arch, fastConfig())
		if err != nil {
			t.Fatalf("%s: NewFactory: %v", name, err)
		}
		if f.Name() != name {
			t.Fatalf("factory names itself %q, want %q", f.Name(), name)
		}
		s, err := f.New()
		if err != nil {
			t.Fatalf("%s: New: %v", name, err)
		}
		if s.Name() != name {
			t.Fatalf("%s: strategy names itself %q", name, s.Name())
		}
		fp, ok := f.Fingerprint()
		if !ok {
			t.Fatalf("%s: not fingerprintable", name)
		}
		if !strings.Contains(fp, `"Kind":"`+name+`"`) {
			t.Fatalf("%s: fingerprint does not carry the kind: %s", name, fp)
		}
		for prev, pfp := range seen {
			if pfp == fp {
				t.Fatalf("fingerprint collision between %q and %q", name, prev)
			}
		}
		seen[name] = fp
	}
	if len(seen) < 6 {
		t.Fatalf("expected at least 6 registered strategies, have %v", Names())
	}
}

// TestFingerprintPrePR10ByteIdentical: with the scheduler and transfer
// knobs at their defaults, fingerprints must reproduce the pre-scheduler
// release byte for byte — every previously persisted cache snapshot and
// fleet routing key depends on it. The golden file was generated by the
// pre-PR10 tree.
func TestFingerprintPrePR10ByteIdentical(t *testing.T) {
	fh, err := os.Open("testdata/fingerprints_pr9.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer fh.Close()

	app := apps.JPEG(rand.New(rand.NewSource(77)))
	arch := apps.MotionArch(2000, apps.DefaultMotionConfig())
	esCfg := fastConfig()
	esCfg.EarlyStopEpsilon = 0.01
	esCfg.EarlyStopWindow = 5
	expCfg := fastConfig()
	expCfg.Portfolio = []string{"sa", "ga"}
	expCfg.SAChunk = 32
	configs := map[string]struct {
		name string
		cfg  Config
	}{
		"sa/fast":            {"sa", fastConfig()},
		"ga/fast":            {"ga", fastConfig()},
		"list/fast":          {"list", fastConfig()},
		"brute/fast":         {"brute", fastConfig()},
		"portfolio/fast":     {"portfolio", fastConfig()},
		"portfolio/default":  {"portfolio", DefaultConfig()},
		"sa/earlystop":       {"sa", esCfg},
		"portfolio/explicit": {"portfolio", expCfg},
	}

	n := 0
	sc := bufio.NewScanner(fh)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		label, want, found := strings.Cut(line, "\t")
		if !found {
			t.Fatalf("malformed golden line: %q", line)
		}
		c, ok := configs[label]
		if !ok {
			t.Fatalf("golden label %q has no config in the test", label)
		}
		f, err := NewFactory(c.name, app, arch, c.cfg)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		got, ok := f.Fingerprint()
		if !ok {
			t.Fatalf("%s: not fingerprintable", label)
		}
		if got != want {
			t.Fatalf("%s: fingerprint drifted from pre-PR10:\n got %s\nwant %s", label, got, want)
		}
		n++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if n != len(configs) {
		t.Fatalf("golden file covered %d configs, want %d", n, len(configs))
	}
}

// TestFingerprintSchedNormalization: the slice knob folds into the
// fingerprint exactly when it changes the run — the bandit's explicit
// default slice aliases the implicit one, other slices skew it, and the
// round-robin portfolio and non-composite strategies ignore the knob.
func TestFingerprintSchedNormalization(t *testing.T) {
	app := apps.JPEG(rand.New(rand.NewSource(77)))
	arch := apps.MotionArch(2000, apps.DefaultMotionConfig())
	fp := func(name string, slice int) string {
		cfg := fastConfig()
		cfg.SchedSlice = slice
		f, err := NewFactory(name, app, arch, cfg)
		if err != nil {
			t.Fatal(err)
		}
		s, ok := f.Fingerprint()
		if !ok {
			t.Fatal("not fingerprintable")
		}
		return s
	}

	portfolio := fp("portfolio", 0)
	for _, slice := range []int{4, DefaultSchedSlice, 16} {
		if got := fp("portfolio", slice); got != portfolio {
			t.Fatalf("slice %d skewed the rr portfolio fingerprint:\n%s\n%s", slice, got, portfolio)
		}
	}

	bandit := fp("bandit", 0)
	if bandit == portfolio {
		t.Fatal("bandit must not share the portfolio fingerprint")
	}
	if got := fp("bandit", DefaultSchedSlice); got != bandit {
		t.Fatal("explicit default slice must alias the implicit one")
	}
	if got := fp("bandit", 16); got == bandit {
		t.Fatal("slice length must skew bandit fingerprints")
	}
	if fp("bandit", 4) == fp("bandit", 16) {
		t.Fatal("distinct slices must not share a bandit fingerprint")
	}

	// Non-composite kinds ignore the scheduler knob.
	if got, sa := fp("sa", 32), fp("sa", 0); got != sa {
		t.Fatal("sched knobs must not skew non-composite fingerprints")
	}
}

// TestFingerprintTransferSkew: installing a warm start skews the
// fingerprint by exactly the donor key — transfer off reproduces the cold
// key byte-identically, and two different donors never share a key.
func TestFingerprintTransferSkew(t *testing.T) {
	app := apps.JPEG(rand.New(rand.NewSource(77)))
	arch := apps.MotionArch(2000, apps.DefaultMotionConfig())
	cfg := fastConfig()

	cold, err := NewFactory("bandit", app, arch, cfg)
	if err != nil {
		t.Fatal(err)
	}
	coldFP, _ := cold.Fingerprint()

	donor := donorOutcome(t, app, arch, cfg)
	mk := func(key string) string {
		f, err := NewFactory("bandit", app, arch, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !f.SetWarmStart(&WarmStart{Key: key, Cost: donor.Cost, Best: donor.Best, Eval: donor.Eval, Front: donor.Front}) {
			t.Fatal("warm start rejected")
		}
		fp, ok := f.Fingerprint()
		if !ok {
			t.Fatal("not fingerprintable")
		}
		return fp
	}
	fpA, fpB := mk("aaaa"), mk("bbbb")
	if fpA == coldFP || fpB == coldFP {
		t.Fatal("warm fingerprint must differ from cold")
	}
	if fpA == fpB {
		t.Fatal("different donors must not share a fingerprint")
	}
	if !strings.Contains(fpA, `"TransferKey":"aaaa"`) {
		t.Fatalf("donor key missing from fingerprint: %s", fpA)
	}

	// Non-warmable kinds refuse the warm start and keep their cold key.
	fl, err := NewFactory("list", app, arch, cfg)
	if err != nil {
		t.Fatal(err)
	}
	listFP, _ := fl.Fingerprint()
	if fl.SetWarmStart(&WarmStart{Key: "aaaa", Best: donor.Best, Eval: donor.Eval}) {
		t.Fatal("list must not accept a warm start")
	}
	if got, _ := fl.Fingerprint(); got != listFP {
		t.Fatal("rejected warm start skewed the fingerprint")
	}
}

// donorOutcome runs a quick deterministic list pass to get a feasible
// donor solution over the same instance.
func donorOutcome(t *testing.T, app *model.App, arch *model.Arch, cfg Config) *Outcome {
	t.Helper()
	f, err := NewFactory("list", app, arch, cfg)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Run(context.Background(), f, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestBanditDeterministicTrajectory: for a fixed (seed, budget, slice)
// the bandit's arm sequence — which member advanced at every step — and
// the resulting best cost are bit-identical across runs. This is the
// trajectory half of the determinism contract; worker-count independence
// is pinned in the runner tests.
func TestBanditDeterministicTrajectory(t *testing.T) {
	app := apps.JPEG(rand.New(rand.NewSource(77)))
	arch := apps.MotionArch(1500, apps.DefaultMotionConfig())
	cfg := fastConfig()
	cfg.SchedSlice = 4

	trajectory := func(seed int64, budget int) (seq []string, cost float64, st Stats) {
		f, err := NewFactory("bandit", app, arch, cfg)
		if err != nil {
			t.Fatal(err)
		}
		s, err := f.New()
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Init(seed); err != nil {
			t.Fatal(err)
		}
		prev := map[string]int{}
		for i := 0; i < budget; i++ {
			more, err := s.Step()
			if err != nil {
				t.Fatal(err)
			}
			ss := s.Stats().Sched
			if ss == nil {
				t.Fatal("bandit run without sched telemetry")
			}
			for _, a := range ss.Arms {
				if a.Steps != prev[a.Name] {
					seq = append(seq, a.Name)
					prev[a.Name] = a.Steps
				}
			}
			if !more {
				break
			}
		}
		return seq, s.Best().Cost, s.Stats()
	}

	for _, seed := range []int64{3, 11, 42} {
		seqA, costA, stA := trajectory(seed, 60)
		seqB, costB, stB := trajectory(seed, 60)
		if !reflect.DeepEqual(seqA, seqB) {
			t.Fatalf("seed %d: arm sequences diverged:\n%v\n%v", seed, seqA, seqB)
		}
		if costA != costB {
			t.Fatalf("seed %d: best cost diverged: %v vs %v", seed, costA, costB)
		}
		if !reflect.DeepEqual(stA.Sched, stB.Sched) {
			t.Fatalf("seed %d: sched stats diverged: %+v vs %+v", seed, stA.Sched, stB.Sched)
		}
		if stA.Sched.Policy != SchedUCB || stA.Sched.Slice != 4 {
			t.Fatalf("seed %d: wrong sched telemetry: %+v", seed, stA.Sched)
		}
		var steps int
		for _, a := range stA.Sched.Arms {
			steps += a.Steps
		}
		if steps != stA.Steps {
			t.Fatalf("seed %d: arm step accounting %d != scheduler steps %d", seed, steps, stA.Steps)
		}
	}
}

// TestSchedRRIsDefaultPortfolio: each composite kind owns its policy —
// the portfolio runs rr, the bandit ucb at the default slice — and a
// rerun of either reproduces its outcome and telemetry bit for bit.
func TestSchedRRIsDefaultPortfolio(t *testing.T) {
	app := apps.JPEG(rand.New(rand.NewSource(77)))
	arch := apps.MotionArch(1500, apps.DefaultMotionConfig())

	run := func(name string) (*Outcome, Stats) {
		f, err := NewFactory(name, app, arch, fastConfig())
		if err != nil {
			t.Fatal(err)
		}
		out, st, err := RunStats(context.Background(), f, 7, 40)
		if err != nil {
			t.Fatal(err)
		}
		return out, st
	}
	for _, c := range []struct {
		name, policy string
		slice        int
	}{{"portfolio", SchedRR, 0}, {"bandit", SchedUCB, DefaultSchedSlice}} {
		out, st := run(c.name)
		if st.Sched == nil || st.Sched.Policy != c.policy || st.Sched.Slice != c.slice {
			t.Fatalf("%s: sched telemetry %+v, want policy %q slice %d", c.name, st.Sched, c.policy, c.slice)
		}
		reOut, reSt := run(c.name)
		if out.Cost != reOut.Cost || out.Eval != reOut.Eval {
			t.Fatalf("%s: rerun diverged: %v vs %v", c.name, reOut.Cost, out.Cost)
		}
		if !reflect.DeepEqual(st.Sched, reSt.Sched) {
			t.Fatalf("%s: rerun sched stats diverged: %+v vs %+v", c.name, st.Sched, reSt.Sched)
		}
	}
}

// TestBanditSingleArmIsMember: a bandit over exactly one member is that
// member — same seed stream (member 0 gets the raw seed), same outcome.
func TestBanditSingleArmIsMember(t *testing.T) {
	app := apps.JPEG(rand.New(rand.NewSource(77)))
	arch := apps.MotionArch(1500, apps.DefaultMotionConfig())
	cfg := fastConfig()
	cfg.Portfolio = []string{"sa"}

	fb, err := NewFactory("bandit", app, arch, cfg)
	if err != nil {
		t.Fatal(err)
	}
	bOut, err := Run(context.Background(), fb, 5, 30)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := NewFactory("sa", app, arch, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sOut, err := Run(context.Background(), fs, 5, 30)
	if err != nil {
		t.Fatal(err)
	}
	if bOut.Cost != sOut.Cost || bOut.Eval != sOut.Eval {
		t.Fatalf("single-arm bandit diverged from sa: %v vs %v", bOut.Cost, sOut.Cost)
	}
}

// TestWarmStartIncumbent: a warm-started scheduler holds the donor as its
// incumbent — with a zero-step budget its best is exactly the donor
// solution, warm runs are deterministic, and the telemetry names the
// donor key.
func TestWarmStartIncumbent(t *testing.T) {
	app := apps.JPEG(rand.New(rand.NewSource(77)))
	arch := apps.MotionArch(1500, apps.DefaultMotionConfig())
	cfg := fastConfig()
	donor := donorOutcome(t, app, arch, cfg)

	warmRun := func(budget int) (*Outcome, Stats) {
		f, err := NewFactory("bandit", app, arch, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !f.SetWarmStart(&WarmStart{Key: "deadbeef", Cost: donor.Cost, Best: donor.Best, Eval: donor.Eval, Front: donor.Front}) {
			t.Fatal("warm start rejected")
		}
		out, st, err := RunStats(context.Background(), f, 9, budget)
		if err != nil {
			t.Fatal(err)
		}
		return out, st
	}

	// Budget 1: the incumbent floor holds even before any member ran long
	// enough to find anything feasible.
	out1, st1 := warmRun(1)
	if out1.Cost > donor.Cost {
		t.Fatalf("warm best %v worse than donor incumbent %v", out1.Cost, donor.Cost)
	}
	if st1.Sched == nil || st1.Sched.TransferKey != "deadbeef" {
		t.Fatalf("transfer telemetry missing: %+v", st1.Sched)
	}
	if st1.Sched.TransferCost != donor.Cost {
		// The donor was produced under the same objective, so the
		// re-evaluated incumbent cost must round-trip exactly.
		t.Fatalf("incumbent cost %v != donor cost %v", st1.Sched.TransferCost, donor.Cost)
	}

	// A longer warm run never does worse than the donor, and is
	// deterministic.
	outA, _ := warmRun(25)
	outB, _ := warmRun(25)
	if outA.Cost != outB.Cost || outA.Eval != outB.Eval {
		t.Fatalf("warm run not deterministic: %v vs %v", outA.Cost, outB.Cost)
	}
	if outA.Cost > donor.Cost {
		t.Fatalf("warm run regressed below the incumbent: %v > %v", outA.Cost, donor.Cost)
	}

	// The merged front carries the donor's archive.
	if donor.Front != nil && donor.Front.Len() > 0 {
		if out1.Front == nil || out1.Front.Len() == 0 {
			t.Fatal("warm run dropped the donor front")
		}
	}
}

// TestWarmStartSA: the standalone annealer consumes the warm start too —
// it anneals downhill from the donor mapping and reports the donor key.
func TestWarmStartSA(t *testing.T) {
	app := apps.JPEG(rand.New(rand.NewSource(77)))
	arch := apps.MotionArch(1500, apps.DefaultMotionConfig())
	cfg := fastConfig()
	donor := donorOutcome(t, app, arch, cfg)

	f, err := NewFactory("sa", app, arch, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !f.SetWarmStart(&WarmStart{Key: "cafe", Cost: donor.Cost, Best: donor.Best, Eval: donor.Eval}) {
		t.Fatal("warm start rejected")
	}
	out, st, err := RunStats(context.Background(), f, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if out.Cost > donor.Cost {
		t.Fatalf("warm SA %v worse than donor %v", out.Cost, donor.Cost)
	}
	if st.Sched == nil || st.Sched.TransferKey != "cafe" {
		t.Fatalf("warm SA transfer telemetry missing: %+v", st.Sched)
	}
}
