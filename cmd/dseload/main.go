// Command dseload is an open-loop load generator for the dsed job
// service and the fleet coordinator: it replays a weighted mix of the
// scenario corpus at a configurable arrival rate (or closed-loop
// concurrency), repeats the identical request sequence for -passes
// passes (pass one cold, pass two warm), and reports per-pass p50/p90/
// p99 latency, error rate, cache-hit ratio, and a result digest — the
// sha256 over every distinct job's deterministic quality fields — so
// two dseload runs against different topologies (one dsed vs a fleet)
// can be compared for bit-identical results with -compare.
//
// The request sequence is a pure function of (-mix, -mix-seed, -n,
// -seeds), so replays are exactly reproducible: same specs, same base
// seeds, same order.
//
// Usage:
//
//	dseload -addr http://127.0.0.1:9400 -rps 20 -duration 10s
//	dseload -n 60 -passes 2 -report fleet.json
//	dseload -n 60 -report single.json -compare fleet.json   # digest equality
//	dseload -rps 10 -duration 10s -max-errors 0 -min-hits 1 # CI smoke gate
//
// A job that ends done without a summary is an error, and a result whose
// quality fields differ from its spec's first result (in any pass) is a
// determinism violation that fails the run.
//
// Exit codes: 0 success, 1 runtime failure, 2 flag-usage error,
// 3 assertion failed (-max-errors / -min-hits / -min-hit-ratio /
// -compare, or a determinism violation).
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/dse"
	"repro/internal/cli"
	"repro/internal/scenario"
)

func main() { cli.Main("dseload", run) }

// run parses args, replays the sequence against the target and writes
// the per-pass summary to stdout.
func run(args []string, stdout io.Writer) error {
	fs := cli.NewFlagSet("dseload")
	var (
		addr        = fs.String("addr", "http://127.0.0.1:8080", "target base URL (a dsed worker or a fleet coordinator)")
		mixFlag     = fs.String("mix", "fig2-small=3,pipeline-fft-small=2,forkjoin-tiny=1", "weighted scenario mix, name=weight comma-separated")
		strategy    = fs.String("strategy", "sa", "search strategy for every job")
		runs        = fs.Int("runs", 2, "independent runs per job")
		maxSteps    = fs.Int("max-steps", 8, "driver step budget per run")
		saIters     = fs.Int("sa-iters", 0, "SA iteration override (0 = scenario default)")
		rps         = fs.Float64("rps", 10, "open-loop arrival rate in jobs/s (0 = closed loop over -concurrency workers)")
		concurrency = fs.Int("concurrency", 8, "closed-loop worker count (used when -rps 0)")
		duration    = fs.Duration("duration", 10*time.Second, "per-pass length when -n is 0 (request count = rps × duration)")
		nFlag       = fs.Int("n", 0, "exact requests per pass (overrides -duration; use for digest-comparable replays)")
		passes      = fs.Int("passes", 2, "replay passes over the identical sequence (pass 1 cold, pass 2+ warm)")
		seeds       = fs.Int("seeds", 0, "base-seed rotation: 0 = unique seed per request index (fully cold first pass), N>0 = rotate seeds 1..N")
		mixSeed     = fs.Int64("mix-seed", 1, "PRNG seed of the weighted scenario draw")
		poll        = fs.Duration("poll", 20*time.Millisecond, "job status poll interval")
		timeout     = fs.Duration("timeout", 120*time.Second, "per-job timeout")
		reportPath  = fs.String("report", "", "write the JSON report here")
		comparePath = fs.String("compare", "", "compare per-pass result digests against this previously written report (exit 3 on mismatch)")
		maxErrors   = fs.Int("max-errors", -1, "fail (exit 3) when any pass exceeds this many errors (-1 = no assertion)")
		minHits     = fs.Int("min-hits", 0, "fail (exit 3) when total cache hits across passes fall below this")
		minHitRatio = fs.Float64("min-hit-ratio", 0, "fail (exit 3) when the final pass's cache-hit ratio falls below this")
	)
	if err := cli.Parse(fs, args); err != nil {
		return err
	}

	mix, err := parseMix(*mixFlag)
	if err != nil {
		return usage(fs, err)
	}
	n := *nFlag
	if n <= 0 {
		if *rps <= 0 {
			return usage(fs, errors.New("closed loop (-rps 0) needs an explicit -n"))
		}
		n = int(math.Round(*rps * duration.Seconds()))
		if n < 1 {
			n = 1
		}
	}
	if *passes < 1 {
		*passes = 1
	}

	seq := buildSequence(mix, n, *seeds, *mixSeed, *strategy, *runs, *maxSteps, *saIters)
	client := dse.NewClient(*addr)
	ctx := context.Background()
	if err := client.Health(ctx); err != nil {
		return fmt.Errorf("target %s unhealthy: %w", *addr, err)
	}
	fleetWorkers := 0
	if ws, err := client.Workers(ctx); err == nil {
		fleetWorkers = len(ws)
	}

	rep := Report{
		Target: *addr, Generated: time.Now().UTC().Format(time.RFC3339),
		Mix: mix, Strategy: *strategy, Runs: *runs, MaxSteps: *maxSteps, SAIters: *saIters,
		RPS: *rps, Concurrency: *concurrency, N: n, Passes: *passes,
		Seeds: *seeds, MixSeed: *mixSeed, FleetWorkers: fleetWorkers,
	}
	topology := "single dsed"
	if fleetWorkers > 0 {
		topology = fmt.Sprintf("fleet of %d workers", fleetWorkers)
	}
	fmt.Fprintf(stdout, "dseload: %s (%s), %d requests/pass × %d passes, mix %s\n",
		*addr, topology, n, *passes, *mixFlag)

	// first maps each spec to its first result's quality line, across
	// passes: a later result that differs is a determinism violation.
	first := map[string]string{}
	for p := 0; p < *passes; p++ {
		pr := runPass(ctx, client, seq, first, passName(p, *passes), *rps, *concurrency, *poll, *timeout)
		rep.PassResults = append(rep.PassResults, pr)
		fmt.Fprintf(stdout, "  pass %-5s %4d req  %3d err  p50 %7.1fms  p99 %7.1fms  hit %5.1f%%  %6.1f req/s  digest %s\n",
			pr.Name, pr.Requests, pr.Errors, pr.LatencyMS.P50, pr.LatencyMS.P99,
			100*pr.HitRatio, pr.AchievedRPS, short(pr.ResultDigest))
		for _, s := range pr.ErrorSamples {
			fmt.Fprintf(stdout, "    error: %s\n", s)
		}
	}

	if *reportPath != "" {
		if err := writeReport(*reportPath, &rep); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "dseload: wrote %s\n", *reportPath)
	}

	failed := false
	totalHits := 0
	for _, pr := range rep.PassResults {
		totalHits += pr.CacheHits
		if *maxErrors >= 0 && pr.Errors > *maxErrors {
			fmt.Fprintf(stdout, "dseload: FAIL pass %s had %d errors (max %d)\n", pr.Name, pr.Errors, *maxErrors)
			failed = true
		}
		if pr.Inconsistent > 0 {
			fmt.Fprintf(stdout, "dseload: FAIL pass %s: %d results diverged from their spec's first quality fields (determinism violation)\n", pr.Name, pr.Inconsistent)
			failed = true
		}
	}
	if *minHits > 0 && totalHits < *minHits {
		fmt.Fprintf(stdout, "dseload: FAIL %d total cache hits (min %d)\n", totalHits, *minHits)
		failed = true
	}
	if *minHitRatio > 0 && len(rep.PassResults) > 0 {
		last := rep.PassResults[len(rep.PassResults)-1]
		if last.HitRatio < *minHitRatio {
			fmt.Fprintf(stdout, "dseload: FAIL final pass hit ratio %.3f (min %.3f)\n", last.HitRatio, *minHitRatio)
			failed = true
		}
	}
	if *comparePath != "" {
		if err := compareReports(*comparePath, &rep); err != nil {
			fmt.Fprintf(stdout, "dseload: FAIL %v\n", err)
			failed = true
		} else {
			fmt.Fprintf(stdout, "dseload: result digests bit-identical to %s\n", *comparePath)
		}
	}
	if failed {
		return cli.ErrGate
	}
	return nil
}

// usage prints a bad flag value the way the flag set prints its own
// errors and reports a usage failure (exit 2).
func usage(fs *flag.FlagSet, err error) error {
	fmt.Fprintf(fs.Output(), "dseload: %v\n", err)
	return cli.ErrUsage
}

// MixEntry is one weighted scenario of the replay mix.
type MixEntry struct {
	Scenario string `json:"scenario"`
	Weight   int    `json:"weight"`
}

// Quantiles summarizes a latency distribution in milliseconds.
type Quantiles struct {
	P50  float64 `json:"p50"`
	P90  float64 `json:"p90"`
	P99  float64 `json:"p99"`
	Mean float64 `json:"mean"`
	Min  float64 `json:"min"`
	Max  float64 `json:"max"`
}

// PassResult is one replay pass's measurements.
type PassResult struct {
	Name          string    `json:"name"`
	Requests      int       `json:"requests"`
	Errors        int       `json:"errors"`
	ErrorRate     float64   `json:"errorRate"`
	DistinctSpecs int       `json:"distinctSpecs"`
	LatencyMS     Quantiles `json:"latencyMS"`
	CompletedRuns int       `json:"completedRuns"`
	CacheHits     int       `json:"cacheHits"`
	HitRatio      float64   `json:"hitRatio"`
	WallMS        float64   `json:"wallMS"`
	AchievedRPS   float64   `json:"achievedRPS"`
	// ResultDigest is sha256 over the sorted (spec → quality fields)
	// lines of every successful job: identical digests mean bit-identical
	// results, whatever topology served them.
	ResultDigest string `json:"resultDigest"`
	// Inconsistent counts results whose quality fields differ from their
	// spec's first result, in this pass or an earlier one — always 0
	// unless the determinism invariant is broken.
	Inconsistent int      `json:"inconsistent"`
	ErrorSamples []string `json:"errorSamples,omitempty"`
}

// Report is the dseload JSON artifact.
type Report struct {
	Target       string       `json:"target"`
	Generated    string       `json:"generated"`
	Mix          []MixEntry   `json:"mix"`
	Strategy     string       `json:"strategy"`
	Runs         int          `json:"runs"`
	MaxSteps     int          `json:"maxSteps"`
	SAIters      int          `json:"saIters,omitempty"`
	RPS          float64      `json:"rps"`
	Concurrency  int          `json:"concurrency"`
	N            int          `json:"n"`
	Passes       int          `json:"passes"`
	Seeds        int          `json:"seeds"`
	MixSeed      int64        `json:"mixSeed"`
	FleetWorkers int          `json:"fleetWorkers"`
	PassResults  []PassResult `json:"passResults"`
}

// parseMix parses "name=weight,..." against the scenario registry.
func parseMix(s string) ([]MixEntry, error) {
	var mix []MixEntry
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, wstr, found := strings.Cut(part, "=")
		w := 1
		if found {
			var err error
			w, err = strconv.Atoi(wstr)
			if err != nil || w < 1 {
				return nil, fmt.Errorf("bad mix weight in %q", part)
			}
		}
		if _, ok := scenario.Lookup(name); !ok {
			return nil, fmt.Errorf("unknown scenario %q (have %v)", name, scenario.Names())
		}
		mix = append(mix, MixEntry{Scenario: name, Weight: w})
	}
	if len(mix) == 0 {
		return nil, fmt.Errorf("empty mix")
	}
	return mix, nil
}

// buildSequence materializes the deterministic request schedule: a
// weighted scenario draw from a seeded PRNG plus a per-index base seed.
func buildSequence(mix []MixEntry, n, seeds int, mixSeed int64, strategy string, runs, maxSteps, saIters int) []dse.JobSpec {
	total := 0
	for _, m := range mix {
		total += m.Weight
	}
	rng := rand.New(rand.NewSource(mixSeed))
	out := make([]dse.JobSpec, n)
	for i := range out {
		pick := rng.Intn(total)
		name := mix[0].Scenario
		for _, m := range mix {
			if pick < m.Weight {
				name = m.Scenario
				break
			}
			pick -= m.Weight
		}
		seed := int64(i + 1)
		if seeds > 0 {
			seed = int64(1 + i%seeds)
		}
		out[i] = dse.JobSpec{
			Scenario: name, Strategy: strategy, Runs: runs,
			MaxSteps: maxSteps, Seed: seed,
			Overrides: dse.JobOverrides{SAIters: saIters},
		}
	}
	return out
}

func passName(p, total int) string {
	if total == 2 {
		return [2]string{"cold", "warm"}[p]
	}
	return "pass-" + strconv.Itoa(p+1)
}

// outcome is one request's measurement.
type outcome struct {
	idx       int
	latency   time.Duration
	err       error
	hits      int
	completed int
	quality   string
}

// runPass replays the sequence once: open-loop paced arrivals when
// rps > 0 (a goroutine per arrival, no admission gate — that is what
// open-loop means), otherwise a closed loop of concurrency workers.
func runPass(ctx context.Context, client *dse.Client, seq []dse.JobSpec, first map[string]string, name string, rps float64, concurrency int, poll, timeout time.Duration) PassResult {
	results := make([]outcome, len(seq))
	var wg sync.WaitGroup
	start := time.Now()

	doJob := func(i int) {
		defer wg.Done()
		jctx, cancel := context.WithTimeout(ctx, timeout)
		defer cancel()
		t0 := time.Now()
		st, err := client.SubmitJob(jctx, seq[i])
		if err == nil {
			st, err = client.WaitJob(jctx, st.ID, poll)
		}
		lat := time.Since(t0)
		o := outcome{idx: i, latency: lat, err: err}
		switch {
		case err != nil:
		case st.State != dse.JobDone:
			o.err = fmt.Errorf("job %s finished %s: %s", st.ID, st.State, st.Error)
		case st.Summary == nil:
			o.err = fmt.Errorf("job %s finished done without a summary", st.ID)
		default:
			o.hits = st.Summary.CacheHits
			o.completed = st.Summary.Completed
			o.quality = qualityLine(st.Summary)
		}
		results[i] = o
	}

	if rps > 0 {
		interval := time.Duration(float64(time.Second) / rps)
		tick := time.NewTicker(interval)
		for i := range seq {
			wg.Add(1)
			go doJob(i)
			if i < len(seq)-1 {
				<-tick.C
			}
		}
		tick.Stop()
	} else {
		if concurrency < 1 {
			concurrency = 1
		}
		var next atomic.Int64
		for w := 0; w < concurrency; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(seq) {
						return
					}
					wg.Add(1)
					doJob(i)
				}
			}()
		}
	}
	wg.Wait()
	wall := time.Since(start)

	pr := PassResult{Name: name, Requests: len(seq), WallMS: float64(wall.Microseconds()) / 1e3}
	var lats []float64
	perSpec := map[string]string{}
	for _, o := range results {
		if o.err != nil {
			pr.Errors++
			if len(pr.ErrorSamples) < 5 {
				pr.ErrorSamples = append(pr.ErrorSamples, o.err.Error())
			}
			continue
		}
		lats = append(lats, float64(o.latency.Microseconds())/1e3)
		pr.CacheHits += o.hits
		pr.CompletedRuns += o.completed
		key := specKey(&seq[o.idx])
		if _, seen := perSpec[key]; !seen {
			perSpec[key] = o.quality
		}
		if prev, seen := first[key]; !seen {
			first[key] = o.quality
		} else if prev != o.quality {
			pr.Inconsistent++
		}
	}
	pr.DistinctSpecs = len(perSpec)
	pr.ErrorRate = float64(pr.Errors) / float64(max(1, pr.Requests))
	if pr.CompletedRuns > 0 {
		pr.HitRatio = float64(pr.CacheHits) / float64(pr.CompletedRuns)
	}
	if wall > 0 {
		pr.AchievedRPS = float64(pr.Requests) / wall.Seconds()
	}
	pr.LatencyMS = quantiles(lats)
	pr.ResultDigest = digest(perSpec)
	return pr
}

// specKey identifies a job spec within the digest (everything the
// result is a function of).
func specKey(s *dse.JobSpec) string {
	return fmt.Sprintf("%s|%s|r%d|m%d|i%d|s%d", s.Scenario, s.Strategy, s.Runs, s.MaxSteps, s.SAIters, s.Seed)
}

// qualityLine flattens a summary's deterministic quality fields —
// delivery metadata (cache hits, wall time) deliberately excluded.
func qualityLine(s *dse.JobSummary) string {
	return strings.Join([]string{
		strconv.FormatFloat(s.BestCost, 'g', -1, 64),
		strconv.Itoa(s.BestRun),
		strconv.FormatInt(s.BestSeed, 10),
		strconv.FormatFloat(s.BestMakespanMS, 'g', -1, 64),
		strconv.FormatFloat(s.MeanMakespanMS, 'g', -1, 64),
		strconv.Itoa(s.FrontSize),
		strconv.Itoa(s.DeadlineMet),
		strconv.Itoa(s.Evaluations),
	}, "|")
}

// digest hashes the sorted spec→quality lines.
func digest(perSpec map[string]string) string {
	keys := make([]string, 0, len(perSpec))
	for k := range perSpec {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := sha256.New()
	for _, k := range keys {
		fmt.Fprintf(h, "%s -> %s\n", k, perSpec[k])
	}
	return hex.EncodeToString(h.Sum(nil))
}

func quantiles(lats []float64) Quantiles {
	if len(lats) == 0 {
		return Quantiles{}
	}
	sort.Float64s(lats)
	q := func(p float64) float64 {
		i := int(math.Ceil(p*float64(len(lats)))) - 1
		if i < 0 {
			i = 0
		}
		if i >= len(lats) {
			i = len(lats) - 1
		}
		return lats[i]
	}
	sum := 0.0
	for _, l := range lats {
		sum += l
	}
	return Quantiles{
		P50: q(0.50), P90: q(0.90), P99: q(0.99),
		Mean: sum / float64(len(lats)), Min: lats[0], Max: lats[len(lats)-1],
	}
}

func writeReport(path string, rep *Report) error {
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// compareReports asserts per-pass result-digest equality with a
// previously written report — the fleet-vs-single bit-identity proof.
func compareReports(path string, rep *Report) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var other Report
	if err := json.Unmarshal(b, &other); err != nil {
		return fmt.Errorf("parsing %s: %w", path, err)
	}
	n := min(len(rep.PassResults), len(other.PassResults))
	if n == 0 {
		return fmt.Errorf("%s has no passes to compare", path)
	}
	for i := 0; i < n; i++ {
		a, o := rep.PassResults[i], other.PassResults[i]
		if a.ResultDigest != o.ResultDigest {
			return fmt.Errorf("pass %s result digest %s differs from %s in %s (results not bit-identical)",
				a.Name, short(a.ResultDigest), short(o.ResultDigest), path)
		}
	}
	return nil
}

func short(d string) string {
	if len(d) > 12 {
		return d[:12]
	}
	return d
}
