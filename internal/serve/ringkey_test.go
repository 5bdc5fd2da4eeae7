package serve

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net/http/httptest"
	"os"
	"sort"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/model"
	"repro/internal/search"
)

var update = flag.Bool("update", false, "rewrite testdata/ringkeys_golden.txt from the current resolver")

const ringKeysGoldenPath = "testdata/ringkeys_golden.txt"

// inlineMotionSpec is the dsexplore -server wire shape: the motion
// application and its 2000-CLB architecture shipped inline, with a
// deadline and the given extra fields.
func inlineMotionSpec(t *testing.T, extra string) string {
	t.Helper()
	mcfg := apps.DefaultMotionConfig()
	app, err := json.Marshal(apps.MotionDetection(mcfg))
	if err != nil {
		t.Fatal(err)
	}
	arch, err := json.Marshal(apps.MotionArch(2000, mcfg))
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf(`{"app":%s,"arch":%s,"deadlineMS":40%s}`, app, arch, extra)
}

// ringKeySpecs is the wire-spec table of TestRingKeyGolden: every
// result-shaping knob on its own and in the combinations the CLIs send.
func ringKeySpecs(t *testing.T) [][2]string {
	return [][2]string{
		{"scenario", `{"scenario":"fig2-small"}`},
		{"budget", `{"scenario":"layered-small","runs":3,"seed":7,"maxSteps":40}`},
		{"saIters", `{"scenario":"fig2-small","saIters":2000}`},
		{"quality", `{"scenario":"fig2-small","quality":0.02}`},
		{"wArea", `{"scenario":"fig2-small","wArea":0.001}`},
		{"wReconf", `{"scenario":"fig2-small","wReconf":0.5}`},
		{"weights", `{"scenario":"fig2-small","wArea":0.001,"wReconf":0.5}`},
		{"batch1", `{"scenario":"fig2-small","batch":1}`},
		{"batch8", `{"scenario":"fig2-small","batch":8}`},
		{"earlyStop/5", `{"scenario":"fig2-small","earlyStopEpsilon":0.01,"earlyStopWindow":5}`},
		{"earlyStop/32", `{"scenario":"fig2-small","earlyStopEpsilon":0.01,"earlyStopWindow":32}`},
		{"bandit/slice0", `{"scenario":"fig2-small","strategy":"bandit"}`},
		{"bandit/slice4", `{"scenario":"fig2-small","strategy":"bandit","schedSlice":4}`},
		{"bandit/slice8", `{"scenario":"fig2-small","strategy":"bandit","schedSlice":8}`},
		{"portfolio/slice0", `{"scenario":"fig2-small","strategy":"portfolio"}`},
		{"portfolio/slice4", `{"scenario":"fig2-small","strategy":"portfolio","schedSlice":4}`},
		{"portfolio/slice8", `{"scenario":"fig2-small","strategy":"portfolio","schedSlice":8}`},
		{"ga/quality", `{"scenario":"fig2-small","strategy":"ga","quality":0.02}`},
		{"list/batch", `{"scenario":"fig2-small","strategy":"list","batch":8}`},
		{"transfer", `{"scenario":"fig2-small","transfer":true}`},
		{"inline", inlineMotionSpec(t, ``)},
		{"inline/knobs", inlineMotionSpec(t, `,"strategy":"sa","runs":4,"seed":1,"saIters":3000,"quality":0.05,"wArea":0.001,"batch":4,"earlyStopEpsilon":0.5,"earlyStopWindow":32`)},
	}
}

// TestRingKeyGolden pins the fleet routing key — the job-level cache
// fingerprint — of a table of wire specs, decoded with DecodeSpec's
// rules and resolved as an accepted job's are. A change that moves any
// of these keys re-routes (and re-caches) every such job in a running
// fleet. An intentional change regenerates the file with:
//
//	go test ./internal/serve -run RingKeyGolden -update
func TestRingKeyGolden(t *testing.T) {
	var lines []string
	for _, c := range ringKeySpecs(t) {
		req := httptest.NewRequest("POST", "/v1/jobs", strings.NewReader(c[1]))
		spec, err := DecodeSpec(httptest.NewRecorder(), req)
		if err != nil {
			t.Fatalf("%s: %v", c[0], err)
		}
		res, err := resolve(spec)
		if err != nil {
			t.Fatalf("%s: %v", c[0], err)
		}
		key, err := Job{Spec: spec, res: res}.RingKey()
		if err != nil {
			t.Fatalf("%s: %v", c[0], err)
		}
		lines = append(lines, c[0]+"\t"+key)
	}
	got := []byte(strings.Join(lines, "\n") + "\n")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(ringKeysGoldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(ringKeysGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("ring keys changed:\n--- got\n%s--- want\n%s", got, want)
	}
}

// TestSpecWireFields pins the job spec's JSON field names: the search
// knobs flatten into the spec, and "sched" is not among them.
func TestSpecWireFields(t *testing.T) {
	spec := JobSpec{
		Scenario: "s", App: &model.App{}, Arch: &model.Arch{}, Strategy: "sa", Runs: 1, Seed: 1,
		MaxSteps: 1, Workers: 1, DeadlineMS: 1,
		Overrides: search.Overrides{SAIters: 1, Quality: 1, WArea: 1, WReconf: 1, Batch: 1,
			EarlyStopEpsilon: 1, EarlyStopWindow: 1, SchedSlice: 1, Transfer: true},
	}
	b, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(b, &fields); err != nil {
		t.Fatal(err)
	}
	var got []string
	for k := range fields {
		got = append(got, k)
	}
	sort.Strings(got)
	want := []string{"app", "arch", "batch", "deadlineMS", "earlyStopEpsilon", "earlyStopWindow", "maxSteps",
		"quality", "runs", "saIters", "scenario", "schedSlice", "seed", "strategy", "transfer", "wArea", "wReconf", "workers"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("wire fields %v, want %v", got, want)
	}
}
