package report

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// BenchSchema is the version stamp of the persisted dsebench format;
// LoadBench rejects files written by an incompatible tool.
const BenchSchema = 1

// BenchRow is one cell of the scenario × strategy benchmark matrix.
//
// BestCost, BestMakespanMS, MeanMakespanMS, FrontSize, DeadlineMet and
// Evaluations are deterministic given the scenario seed, run count, and
// the batch/early-stop parameters (identical for any worker count); the
// regression gate compares BestCost. WallMS is machine-dependent
// telemetry, never gated on; EvalsPerSec is machine-dependent too but is
// gated against the committed baseline (CompareBench), which is why the
// baseline must be regenerated on the reference configuration whenever
// the machine or build flags change.
type BenchRow struct {
	Scenario string `json:"scenario"`
	Family   string `json:"family"`
	Size     string `json:"size"`
	Strategy string `json:"strategy"`
	Tasks    int    `json:"tasks"`
	Runs     int    `json:"runs"`

	// Batch, EarlyStopEpsilon and EarlyStopWindow record the cell's
	// speculative-batch width and adaptive early-stop parameters (omitted
	// when the features are off — serial rows stay byte-identical to
	// earlier schema-1 files).
	Batch            int     `json:"batch,omitempty"`
	EarlyStopEpsilon float64 `json:"earlyStopEpsilon,omitempty"`
	EarlyStopWindow  int     `json:"earlyStopWindow,omitempty"`

	BestCost       float64 `json:"bestCost"`
	BestMakespanMS float64 `json:"bestMakespanMS"`
	MeanMakespanMS float64 `json:"meanMakespanMS"`
	FrontSize      int     `json:"frontSize"`
	DeadlineMet    int     `json:"deadlineMet"`

	Evaluations int     `json:"evaluations"`
	EvalsPerSec float64 `json:"evalsPerSec"`
	WallMS      float64 `json:"wallMS"`

	// Speculated/Discarded sum the runs' batch-evaluation telemetry;
	// EarlyStopped counts runs truncated by the early-stop rule;
	// MoveProposed/MoveAccepted sum the per-move-kind counters (map keys
	// are core.MoveKindName values; Go's JSON encoder sorts them, so the
	// rows stay byte-deterministic).
	Speculated   int              `json:"speculated,omitempty"`
	Discarded    int              `json:"discarded,omitempty"`
	EarlyStopped int              `json:"earlyStopped,omitempty"`
	MoveProposed map[string]int64 `json:"moveProposed,omitempty"`
	MoveAccepted map[string]int64 `json:"moveAccepted,omitempty"`

	// Sched and SchedSlice record the composite cell's scheduling policy
	// ("rr", "ucb") and UCB slice length; SchedSlices/SchedSteps/SchedReward
	// sum the per-arm budget accounting over the cell's runs, keyed by
	// member strategy name. All absent for non-composite cells, so
	// pre-PR10 files stay byte-identical.
	Sched       string             `json:"sched,omitempty"`
	SchedSlice  int                `json:"schedSlice,omitempty"`
	SchedSlices map[string]int64   `json:"schedSlices,omitempty"`
	SchedSteps  map[string]int64   `json:"schedSteps,omitempty"`
	SchedReward map[string]float64 `json:"schedReward,omitempty"`

	// TransferKey/TransferCost/TransferRuns record the warm-start donor
	// when the cell's runs were transfer-seeded: the donor's memo key, its
	// incumbent cost, and how many of the cell's runs consumed it.
	TransferKey  string  `json:"transferKey,omitempty"`
	TransferCost float64 `json:"transferCost,omitempty"`
	TransferRuns int     `json:"transferRuns,omitempty"`

	// WarmWallMS and CacheHits are recorded when the cell ran a second,
	// cache-warm pass (dsebench -cache): the warm pass's wall time and how
	// many of its runs were served from the memoized result cache. The
	// warm pass's quality fields are verified bit-identical to the cold
	// pass before the row is emitted, so they are not stored twice.
	WarmWallMS float64 `json:"warmWallMS,omitempty"`
	CacheHits  int     `json:"cacheHits,omitempty"`

	// Skipped, when non-empty, records why the cell did not run (e.g.
	// brute on an instance above its task bound); the metric fields are
	// zero and the regression gate ignores the row.
	Skipped string `json:"skipped,omitempty"`
}

// Key identifies the cell for baseline comparison.
func (r *BenchRow) Key() string { return r.Scenario + "/" + r.Strategy }

// BenchFile is the persisted dsebench result set (BENCH_PR4.json and the
// committed regression baseline).
type BenchFile struct {
	Schema  int               `json:"schema"`
	Tool    string            `json:"tool"`
	Params  map[string]string `json:"params,omitempty"`
	Results []BenchRow        `json:"results"`
}

// WriteBench writes the file as indented JSON.
func WriteBench(w io.Writer, f *BenchFile) error {
	f.Schema = BenchSchema
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(f)
}

// SaveBench writes the file to path.
func SaveBench(path string, f *BenchFile) error {
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	defer out.Close()
	return WriteBench(out, f)
}

// LoadBench reads and version-checks a persisted result set.
func LoadBench(path string) (*BenchFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f BenchFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("report: decoding %s: %w", path, err)
	}
	if f.Schema != BenchSchema {
		return nil, fmt.Errorf("report: %s has schema %d, this tool reads %d", path, f.Schema, BenchSchema)
	}
	return &f, nil
}

// DiffBench prints an old-vs-new comparison of two result sets: one line
// per cell of the new file with the evaluation-throughput and best-cost
// deltas against the matching old cell (matched by scenario/strategy
// key, like the regression gate). Unlike CompareBench it gates nothing —
// it is the human-readable "what did this change buy" report behind
// `make bench-diff`. Cells present on only one side are listed as
// new/removed.
func DiffBench(w io.Writer, old, now *BenchFile) {
	oldBy := make(map[string]*BenchRow, len(old.Results))
	for i := range old.Results {
		oldBy[old.Results[i].Key()] = &old.Results[i]
	}
	pct := func(o, n float64) string {
		if o == 0 {
			return "n/a"
		}
		return fmt.Sprintf("%+.1f%%", (n-o)/o*100)
	}
	fmt.Fprintf(w, "%-34s %12s %12s %8s %12s %12s %8s\n",
		"cell", "old ev/s", "new ev/s", "delta", "old cost", "new cost", "delta")
	seen := make(map[string]bool, len(now.Results))
	for i := range now.Results {
		r := &now.Results[i]
		seen[r.Key()] = true
		if r.Skipped != "" {
			continue
		}
		o := oldBy[r.Key()]
		if o == nil || o.Skipped != "" {
			fmt.Fprintf(w, "%-34s %12s %12.0f %8s %12s %12.4f %8s\n",
				r.Key(), "-", r.EvalsPerSec, "new", "-", r.BestCost, "")
			continue
		}
		fmt.Fprintf(w, "%-34s %12.0f %12.0f %8s %12.4f %12.4f %8s\n",
			r.Key(), o.EvalsPerSec, r.EvalsPerSec, pct(o.EvalsPerSec, r.EvalsPerSec),
			o.BestCost, r.BestCost, pct(o.BestCost, r.BestCost))
	}
	for i := range old.Results {
		if k := old.Results[i].Key(); !seen[k] {
			fmt.Fprintf(w, "%-34s removed (present only in the old file)\n", k)
		}
	}
}

// moveKindCell renders a per-move-kind counter map as one deterministic
// cell: kinds sorted by name, "kind=count" pairs joined by commas — the
// commas are what the CSV writer's RFC 4180 quoting exists for.
func moveKindCell(m map[string]int64) string {
	if len(m) == 0 {
		return "-"
	}
	kinds := make([]string, 0, len(m))
	for k := range m {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	parts := make([]string, len(kinds))
	for i, k := range kinds {
		parts[i] = fmt.Sprintf("%s=%d", k, m[k])
	}
	return strings.Join(parts, ",")
}

// BenchTable renders the result set as an aligned text/CSV table. The
// per-move-kind headers deliberately carry a comma ("kind=n,..."), so a
// compliant CSV reader must honor RFC 4180 quoting.
func BenchTable(f *BenchFile) *Table {
	t := NewTable("scenario", "family", "size", "strategy", "tasks", "runs",
		"best_cost", "best_ms", "mean_ms", "front", "evals", "evals_per_s", "wall_ms",
		"warm_ms", "hits", "speculated", "discarded",
		"moves_proposed (kind=n,...)", "moves_accepted (kind=n,...)",
		"sched", "arm_steps (name=n,...)", "transfer", "note")
	for i := range f.Results {
		r := &f.Results[i]
		if r.Skipped != "" {
			t.AddRow(r.Scenario, r.Family, r.Size, r.Strategy, r.Tasks, "-",
				"-", "-", "-", "-", "-", "-", "-", "-", "-", "-", "-", "-", "-", "-", "-",
				"-",
				"skipped: "+r.Skipped)
			continue
		}
		warm, hits := "-", "-"
		if r.WarmWallMS > 0 {
			warm = fmt.Sprintf("%.2f", r.WarmWallMS)
			hits = fmt.Sprint(r.CacheHits)
		}
		sched, transfer := "-", "-"
		if r.Sched != "" {
			sched = r.Sched
			if r.SchedSlice > 0 {
				sched = fmt.Sprintf("%s/%d", r.Sched, r.SchedSlice)
			}
		}
		if r.TransferRuns > 0 {
			transfer = fmt.Sprintf("%d@%.4f", r.TransferRuns, r.TransferCost)
		}
		t.AddRow(r.Scenario, r.Family, r.Size, r.Strategy, r.Tasks, r.Runs,
			fmt.Sprintf("%.4f", r.BestCost), r.BestMakespanMS, r.MeanMakespanMS,
			r.FrontSize, r.Evaluations, fmt.Sprintf("%.0f", r.EvalsPerSec), r.WallMS,
			warm, hits, r.Speculated, r.Discarded,
			moveKindCell(r.MoveProposed), moveKindCell(r.MoveAccepted),
			sched, moveKindCell(r.SchedSteps), transfer, "")
	}
	return t
}

// SchedGate holds the bandit-vs-baseline scheduling comparison of one
// result set: per scenario, the bandit strategy's best cost against the
// baseline (round-robin portfolio) strategy's.
type SchedGate struct {
	// Cells is the number of scenarios present (unskipped) under both
	// strategies.
	Cells int
	// Wins counts scenarios where the bandit's best cost <= the
	// baseline's.
	Wins int
	// Violations lists scenarios where the bandit was more than the
	// tolerance worse than the baseline, sorted by key.
	Violations []Regression
}

// CompareSched evaluates the adaptive-scheduling acceptance gate over a
// single result set containing both strategies: the bandit must match or
// beat the baseline on at least half the scenarios and must never be
// more than tol (e.g. 0.05 = 5%) worse on any. Ok reports whether both
// conditions hold; the returned SchedGate carries the evidence either
// way. Scenarios missing either strategy, or skipped, are ignored.
func CompareSched(f *BenchFile, bandit, baseline string, tol float64) (SchedGate, bool) {
	base := make(map[string]*BenchRow)
	for i := range f.Results {
		r := &f.Results[i]
		if r.Strategy == baseline && r.Skipped == "" {
			base[r.Scenario] = r
		}
	}
	var g SchedGate
	for i := range f.Results {
		r := &f.Results[i]
		if r.Strategy != bandit || r.Skipped != "" {
			continue
		}
		b, ok := base[r.Scenario]
		if !ok {
			continue
		}
		g.Cells++
		if r.BestCost <= b.BestCost {
			g.Wins++
		}
		if b.BestCost > 0 && r.BestCost > b.BestCost*(1+tol) {
			g.Violations = append(g.Violations, Regression{
				Key: r.Scenario, Metric: "bestCost",
				Old: b.BestCost, New: r.BestCost, Ratio: r.BestCost / b.BestCost,
			})
		}
	}
	sort.Slice(g.Violations, func(i, j int) bool { return g.Violations[i].Key < g.Violations[j].Key })
	ok := g.Cells > 0 && len(g.Violations) == 0 && g.Wins*2 >= g.Cells
	return g, ok
}

// Regression is one baseline-comparison finding.
type Regression struct {
	// Key is the offending cell ("scenario/strategy").
	Key string
	// Metric names the compared quantity ("bestCost") or the structural
	// problem ("missing": the cell exists in the baseline but not in the
	// new results).
	Metric string
	// Old, New and Ratio quantify the change (Ratio = New/Old).
	Old, New, Ratio float64
}

// String renders the finding for the failure report.
func (r Regression) String() string {
	if r.Metric == "missing" {
		return fmt.Sprintf("%s: present in baseline, missing from results", r.Key)
	}
	if r.Ratio < 1 {
		// Throughput regressions: the new value dropped below the baseline.
		return fmt.Sprintf("%s: %s %.4f -> %.4f (%.1f%% slower)", r.Key, r.Metric, r.Old, r.New, (1-r.Ratio)*100)
	}
	return fmt.Sprintf("%s: %s %.4f -> %.4f (%.1f%% worse)", r.Key, r.Metric, r.Old, r.New, (r.Ratio-1)*100)
}

// ThroughputGateMinWallMS is the baseline wall time below which a cell's
// evals/s is recorded but not gated: a rate measured over a few
// milliseconds swings well past any reasonable threshold on scheduler
// noise alone, so only cells whose baseline measurement ran at least this
// long (the dedicated throughput-pin cells, e.g. layered-xl SA) are held
// to the gate.
const ThroughputGateMinWallMS = 1000.0

// CompareBench gates new results against a baseline: a cell regresses when
// its best cost worsens by more than threshold (e.g. 0.20 = 20%) relative
// to the baseline, when its evaluation throughput drops by more than the
// same threshold below the baseline's (only gated when the baseline
// recorded a throughput — older baselines and skipped cells carry none —
// over a run of at least ThroughputGateMinWallMS), or when a baseline
// cell disappears. Cells new in `now`, skipped cells, and the remaining
// telemetry fields are ignored. Findings are sorted by key for a
// deterministic report.
func CompareBench(baseline, now *BenchFile, threshold float64) []Regression {
	current := map[string]*BenchRow{}
	for i := range now.Results {
		r := &now.Results[i]
		if r.Skipped == "" {
			current[r.Key()] = r
		}
	}
	var regs []Regression
	for i := range baseline.Results {
		old := &baseline.Results[i]
		if old.Skipped != "" {
			continue
		}
		cur, ok := current[old.Key()]
		if !ok {
			regs = append(regs, Regression{Key: old.Key(), Metric: "missing"})
			continue
		}
		if old.BestCost > 0 && cur.BestCost > old.BestCost*(1+threshold) {
			regs = append(regs, Regression{
				Key: old.Key(), Metric: "bestCost",
				Old: old.BestCost, New: cur.BestCost, Ratio: cur.BestCost / old.BestCost,
			})
		}
		// Throughput gates in the opposite direction: lower is worse. The
		// Ratio convention stays New/Old, so a report of 0.7 reads "30%
		// slower".
		if old.EvalsPerSec > 0 && old.WallMS >= ThroughputGateMinWallMS &&
			cur.EvalsPerSec < old.EvalsPerSec*(1-threshold) {
			regs = append(regs, Regression{
				Key: old.Key(), Metric: "evalsPerSec",
				Old: old.EvalsPerSec, New: cur.EvalsPerSec, Ratio: cur.EvalsPerSec / old.EvalsPerSec,
			})
		}
	}
	sort.Slice(regs, func(i, j int) bool { return regs[i].Key < regs[j].Key })
	return regs
}
