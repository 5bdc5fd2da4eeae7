package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"

	"repro/internal/runner"
)

// TestV1AndLegacyAliases pins the versioning contract: every endpoint
// answers under /v1 without deprecation signals, and the unversioned
// aliases of the original API are gone.
func TestV1AndLegacyAliases(t *testing.T) {
	_, ts := testServer(t, runner.NewResultCache(16))

	for _, path := range []string{"/healthz", "/scenarios", "/cache", "/metrics", "/jobs"} {
		v1, err := http.Get(ts.URL + "/v1" + path)
		if err != nil {
			t.Fatal(err)
		}
		v1.Body.Close()
		if v1.StatusCode != http.StatusOK {
			t.Fatalf("GET /v1%s = %d", path, v1.StatusCode)
		}
		if dep := v1.Header.Get("Deprecation"); dep != "" {
			t.Fatalf("GET /v1%s carries Deprecation %q; the versioned path is current", path, dep)
		}

		legacy, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		legacy.Body.Close()
		if legacy.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s = %d, want 404: the unversioned alias is gone", path, legacy.StatusCode)
		}
	}
}

// TestErrorEnvelope pins the uniform error shape:
// {"error":{"code":...,"message":...}} with a stable slug per status.
func TestErrorEnvelope(t *testing.T) {
	_, ts := testServer(t, nil)

	cases := []struct {
		method, path, body string
		wantStatus         int
		wantCode           string
	}{
		{"GET", "/v1/jobs/nope", "", http.StatusNotFound, "not_found"},
		{"POST", "/v1/jobs", `{"scenario":"no-such-scenario"}`, http.StatusBadRequest, "bad_request"},
		{"POST", "/v1/run", `{"bogusField":1}`, http.StatusBadRequest, "bad_request"},
		{"DELETE", "/v1/jobs/nope", "", http.StatusNotFound, "not_found"},
	}
	for _, tc := range cases {
		req, err := http.NewRequest(tc.method, ts.URL+tc.path, strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var env errorEnvelope
		err = json.NewDecoder(resp.Body).Decode(&env)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("%s %s: decoding envelope: %v", tc.method, tc.path, err)
		}
		if resp.StatusCode != tc.wantStatus {
			t.Errorf("%s %s = %d, want %d", tc.method, tc.path, resp.StatusCode, tc.wantStatus)
		}
		if env.Error.Code != tc.wantCode {
			t.Errorf("%s %s code = %q, want %q", tc.method, tc.path, env.Error.Code, tc.wantCode)
		}
		if env.Error.Message == "" {
			t.Errorf("%s %s: empty error message", tc.method, tc.path)
		}
	}
}

// TestCacheEndpointShape pins the /v1/cache wire struct: enabled flag,
// policy, capacity and counters, with no per-shard breakdown.
func TestCacheEndpointShape(t *testing.T) {
	cache := runner.NewResultCacheWith(runner.ResultCacheOptions{Capacity: 64})
	_, ts := testServer(t, cache)

	spec := JobSpec{Scenario: "fig2-small", Strategy: "sa", Runs: 2, MaxSteps: 8}
	var queued JobStatus
	postJSON(t, ts.URL+"/v1/jobs", spec, &queued)
	waitDone(t, ts.URL, queued.ID)

	var info struct {
		Enabled  bool   `json:"enabled"`
		Policy   string `json:"policy"`
		Capacity int    `json:"capacity"`
		Entries  int    `json:"entries"`
		Misses   uint64 `json:"misses"`
	}
	getJSON(t, ts.URL+"/v1/cache", &info)
	var raw map[string]json.RawMessage
	getJSON(t, ts.URL+"/v1/cache", &raw)
	if _, ok := raw["shards"]; ok {
		t.Fatal("/v1/cache still reports shards")
	}
	if !info.Enabled {
		t.Fatal("cache reported disabled")
	}
	if info.Policy != "lru" {
		t.Fatalf("policy = %q, want lru", info.Policy)
	}
	if info.Capacity != 64 {
		t.Fatalf("capacity = %d, want 64", info.Capacity)
	}
	if info.Entries != 2 || info.Misses == 0 {
		t.Fatalf("entries=%d misses=%d after a 2-run job", info.Entries, info.Misses)
	}

	// Disabled cache: still a valid JSON object, enabled=false.
	_, tsOff := testServer(t, nil)
	var off struct {
		Enabled bool `json:"enabled"`
	}
	getJSON(t, tsOff.URL+"/v1/cache", &off)
	if off.Enabled {
		t.Fatal("nil cache reported enabled")
	}
}

// TestMetricsExposition pins the Prometheus text format: after a cached
// resubmit, each cache family carries one unlabeled sample, the hit and
// miss counters are non-zero, and the retired expiry families and shard
// labels are absent.
func TestMetricsExposition(t *testing.T) {
	cache := runner.NewResultCacheWith(runner.ResultCacheOptions{Capacity: 64})
	_, ts := testServer(t, cache)

	spec := JobSpec{Scenario: "fig2-small", Strategy: "sa", Runs: 2, MaxSteps: 8}
	for i := 0; i < 2; i++ {
		var queued JobStatus
		postJSON(t, ts.URL+"/v1/jobs", spec, &queued)
		waitDone(t, ts.URL, queued.ID)
	}

	resp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("Content-Type = %q, want text/plain exposition", ct)
	}
	raw, _ := io.ReadAll(resp.Body)
	body := string(raw)

	for _, family := range []string{
		"dse_cache_hits_total", "dse_cache_misses_total", "dse_cache_coalesced_total",
		"dse_cache_evictions_total", "dse_cache_entries", "dse_jobs",
	} {
		if !strings.Contains(body, "# TYPE "+family) {
			t.Errorf("metrics missing family %s", family)
		}
	}
	// The clock-driven families went with TTL and stale-while-revalidate.
	for _, family := range []string{"dse_cache_expirations_total", "dse_cache_stale_serves_total", "dse_cache_refreshes_total"} {
		if strings.Contains(body, family) {
			t.Errorf("metrics still expose the retired family %s", family)
		}
	}
	if strings.Contains(body, "shard=") {
		t.Error("metrics still carry a shard label")
	}
	// Each cache family has exactly one sample, unlabeled.
	sample := func(name string) uint64 {
		var v uint64
		n := 0
		for _, line := range strings.Split(body, "\n") {
			if strings.HasPrefix(line, name+"{") {
				t.Errorf("labeled sample %q", line)
			}
			rest, ok := strings.CutPrefix(line, name+" ")
			if !ok {
				continue
			}
			var err error
			if v, err = strconv.ParseUint(rest, 10, 64); err != nil {
				t.Fatalf("unparseable sample %q: %v", line, err)
			}
			n++
		}
		if n != 1 {
			t.Errorf("%s has %d samples, want 1", name, n)
		}
		return v
	}
	for _, family := range []string{"dse_cache_coalesced_total", "dse_cache_evictions_total", "dse_cache_entries"} {
		sample(family)
	}
	// The resubmitted job hit the cache, and the first job's misses are
	// recorded.
	hits, misses := sample("dse_cache_hits_total"), sample("dse_cache_misses_total")
	if hits == 0 {
		t.Error("resubmitted job produced no cache hits in /metrics")
	}
	if misses == 0 {
		t.Error("cold job produced no cache misses in /metrics")
	}
	if !strings.Contains(body, `dse_cache_info{policy="lru"} 1`) {
		t.Error("metrics missing policy info gauge")
	}
	if !strings.Contains(body, `dse_jobs{state="done"} 2`) {
		t.Errorf("metrics missing done-jobs gauge; body:\n%s", body)
	}
}
