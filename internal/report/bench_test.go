package report

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func sampleBench() *BenchFile {
	return &BenchFile{
		Tool:   "dsebench",
		Params: map[string]string{"smoke": "true"},
		Results: []BenchRow{
			{Scenario: "a", Family: "pipeline", Size: "tiny", Strategy: "sa", Tasks: 8, Runs: 2,
				BestCost: 5.0, BestMakespanMS: 5.0, MeanMakespanMS: 5.5, FrontSize: 3,
				Evaluations: 1000, EvalsPerSec: 5e5, WallMS: 2000},
			{Scenario: "a", Family: "pipeline", Size: "tiny", Strategy: "list", Tasks: 8, Runs: 2,
				BestCost: 6.0, BestMakespanMS: 6.0, MeanMakespanMS: 6.0, FrontSize: 2,
				Evaluations: 40, EvalsPerSec: 1e5, WallMS: 1},
			{Scenario: "big", Family: "paper", Size: "medium", Strategy: "brute", Tasks: 28,
				Skipped: "28 tasks > brute bound 24"},
		},
	}
}

func TestBenchRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := SaveBench(path, sampleBench()); err != nil {
		t.Fatal(err)
	}
	got, err := LoadBench(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Schema != BenchSchema || got.Tool != "dsebench" || len(got.Results) != 3 {
		t.Fatalf("round trip mangled the file: %+v", got)
	}
	if !reflect.DeepEqual(got.Results[0], sampleBench().Results[0]) {
		t.Fatalf("row changed: %+v", got.Results[0])
	}
	if _, err := LoadBench(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("missing file loaded")
	}
}

func TestBenchSchemaRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.json")
	f := sampleBench()
	if err := SaveBench(path, f); err != nil {
		t.Fatal(err)
	}
	raw := []byte(`{"schema": 999, "tool": "dsebench", "results": []}`)
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadBench(path); err == nil {
		t.Fatal("wrong schema accepted")
	}
}

func TestCompareBench(t *testing.T) {
	base := sampleBench()

	// Identical results: no regressions.
	if regs := CompareBench(base, sampleBench(), 0.20); len(regs) != 0 {
		t.Fatalf("self-comparison regressed: %v", regs)
	}

	// One cell 30% worse, another within threshold.
	now := sampleBench()
	now.Results[0].BestCost = 6.5 // +30% on a/sa
	now.Results[1].BestCost = 6.6 // +10% on a/list
	regs := CompareBench(base, now, 0.20)
	if len(regs) != 1 || regs[0].Key != "a/sa" || regs[0].Metric != "bestCost" {
		t.Fatalf("want one bestCost regression on a/sa, got %v", regs)
	}
	if !strings.Contains(regs[0].String(), "a/sa") {
		t.Fatalf("unreadable finding: %s", regs[0])
	}

	// Throughput gates downward: a 30% evals/s drop regresses, a 10% drop
	// and any speedup do not, and cells whose baseline recorded no
	// throughput (older files) are not gated.
	now = sampleBench()
	now.Results[0].EvalsPerSec = 3e5 // -40% on a/sa
	now.Results[1].EvalsPerSec = 9e4 // -10% on a/list
	regs = CompareBench(base, now, 0.20)
	if len(regs) != 1 || regs[0].Key != "a/sa" || regs[0].Metric != "evalsPerSec" {
		t.Fatalf("want one evalsPerSec regression on a/sa, got %v", regs)
	}
	if !strings.Contains(regs[0].String(), "slower") {
		t.Fatalf("unreadable throughput finding: %s", regs[0])
	}
	noThroughput := sampleBench()
	noThroughput.Results[0].EvalsPerSec = 0
	now = sampleBench()
	now.Results[0].EvalsPerSec = 1
	if regs := CompareBench(noThroughput, now, 0.20); len(regs) != 0 {
		t.Fatalf("baseline without throughput gated: %v", regs)
	}
	// Sub-second baseline cells are never throughput-gated: a rate
	// measured over a few milliseconds swings on scheduler noise alone
	// (a/list's baseline wall is 1 ms, so even a 90% drop passes).
	now = sampleBench()
	now.Results[1].EvalsPerSec = 1e4
	if regs := CompareBench(base, now, 0.20); len(regs) != 0 {
		t.Fatalf("millisecond cell throughput-gated: %v", regs)
	}

	// A gated cell disappearing is a regression; skipped cells are not
	// gated; new cells are ignored.
	now = sampleBench()
	now.Results = now.Results[1:]
	now.Results = append(now.Results, BenchRow{Scenario: "new", Strategy: "sa", BestCost: 1})
	regs = CompareBench(base, now, 0.20)
	if len(regs) != 1 || regs[0].Metric != "missing" || regs[0].Key != "a/sa" {
		t.Fatalf("want one missing-cell finding, got %v", regs)
	}
}

// TestBenchTableCSVEscapesKindColumns pins the RFC 4180 behavior of the
// batch-telemetry columns: both the per-move-kind headers and their cells
// carry literal commas, so a compliant writer must quote them — an
// unquoted comma would shift every later column and corrupt the
// scheduler columns. The test parses the CSV back with a minimal RFC 4180 reader
// to prove the column count survives.
func TestBenchTableCSVEscapesKindColumns(t *testing.T) {
	f := sampleBench()
	f.Results[0].Batch = 8
	f.Results[0].Speculated = 700
	f.Results[0].Discarded = 120
	f.Results[0].MoveProposed = map[string]int64{"remap": 400, "swap": 300}
	f.Results[0].MoveAccepted = map[string]int64{"remap": 90}

	var buf bytes.Buffer
	if err := BenchTable(f).CSV(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	// Comma-bearing headers and cells must arrive quoted.
	for _, quoted := range []string{
		`"moves_proposed (kind=n,...)"`,
		`"moves_accepted (kind=n,...)"`,
		`"remap=400,swap=300"`,
	} {
		if !strings.Contains(out, quoted) {
			t.Fatalf("CSV lost RFC 4180 quoting of %s:\n%s", quoted, out)
		}
	}
	// Single-kind cells have no comma and must stay unquoted.
	if !strings.Contains(out, ",remap=90,") {
		t.Fatalf("comma-free kind cell should be unquoted:\n%s", out)
	}

	// Parse it back: every record must have exactly the header's width.
	records := parseCSV(t, out)
	if len(records) != 4 { // header + 3 rows
		t.Fatalf("want 4 records, got %d", len(records))
	}
	width := len(records[0])
	for i, rec := range records {
		if len(rec) != width {
			t.Fatalf("record %d has %d fields, header has %d — a comma leaked unquoted", i, len(rec), width)
		}
	}
	// The kind cell round-trips to its raw (unquoted) value.
	propCol := -1
	for i, h := range records[0] {
		if h == "moves_proposed (kind=n,...)" {
			propCol = i
		}
	}
	if propCol < 0 {
		t.Fatalf("per-kind header did not round-trip: %q", records[0])
	}
	if got := records[1][propCol]; got != "remap=400,swap=300" {
		t.Fatalf("kind cell = %q, want remap=400,swap=300", got)
	}
}

// parseCSV is a minimal RFC 4180 reader (quoted fields, doubled quotes,
// CRLF record ends) — enough to verify the writer's framing.
func parseCSV(t *testing.T, s string) [][]string {
	t.Helper()
	var records [][]string
	var rec []string
	var field strings.Builder
	inQuotes := false
	i := 0
	for i < len(s) {
		c := s[i]
		switch {
		case inQuotes:
			if c == '"' {
				if i+1 < len(s) && s[i+1] == '"' {
					field.WriteByte('"')
					i++
				} else {
					inQuotes = false
				}
			} else {
				field.WriteByte(c)
			}
		case c == '"':
			inQuotes = true
		case c == ',':
			rec = append(rec, field.String())
			field.Reset()
		case c == '\n' || (c == '\r' && i+1 < len(s) && s[i+1] == '\n'):
			rec = append(rec, field.String())
			field.Reset()
			records = append(records, rec)
			rec = nil
			if c == '\r' {
				i++
			}
		default:
			field.WriteByte(c)
		}
		i++
	}
	if inQuotes {
		t.Fatalf("unterminated quote in CSV: %q", s)
	}
	if field.Len() > 0 || len(rec) > 0 {
		rec = append(rec, field.String())
		records = append(records, rec)
	}
	return records
}

func TestBenchTableRendersSkips(t *testing.T) {
	var buf bytes.Buffer
	if err := BenchTable(sampleBench()).Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "skipped: 28 tasks") {
		t.Fatalf("skip note missing:\n%s", out)
	}
	if !strings.Contains(out, "best_cost") || !strings.Contains(out, "evals_per_s") {
		t.Fatalf("header wrong:\n%s", out)
	}
}
