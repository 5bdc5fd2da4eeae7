package fleet_test

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/dse"
)

// serveRoutes lists the "METHOD /path" patterns serve.Handler mounts, read
// from its source so that a route added there is checked here too.
func serveRoutes(t *testing.T) []string {
	t.Helper()
	src, err := os.ReadFile("../serve/server.go")
	if err != nil {
		t.Fatal(err)
	}
	var routes []string
	for _, m := range regexp.MustCompile(`mux\.HandleFunc\("([A-Z]+ /v1/[^"]*)"`).FindAllSubmatch(src, -1) {
		routes = append(routes, string(m[1]))
	}
	if len(routes) == 0 {
		t.Fatal("no routes found in serve/server.go")
	}
	return routes
}

// TestCoordinatorMountsEveryJobRoute: every route a dsed worker serves
// answers on a coordinator too, so any client of one dsed works
// unchanged against a fleet, streams included.
func TestCoordinatorMountsEveryJobRoute(t *testing.T) {
	f := startFleet(t, 2)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	spec := `{"scenario":"fig2-small","strategy":"sa","runs":2,"maxSteps":8,"seed":3}`
	st, err := dse.NewClient(f.coordTS.URL).SubmitJob(ctx, dse.JobSpec{Scenario: "fig2-small", Strategy: "sa", Runs: 2, MaxSteps: 8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, route := range serveRoutes(t) {
		method, path, _ := strings.Cut(route, " ")
		path = strings.ReplaceAll(path, "{id}", st.ID)
		var body io.Reader
		if method == http.MethodPost {
			body = strings.NewReader(spec)
		}
		req, err := http.NewRequestWithContext(ctx, method, f.coordTS.URL+path, body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s: %v", route, err)
		}
		out, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("%s: %v", route, err)
		}
		if resp.StatusCode >= 300 {
			t.Errorf("%s on the coordinator = %d %s", route, resp.StatusCode, out)
			continue
		}
		if resp.Header.Get("Content-Type") == "application/x-ndjson" {
			lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
			last := lines[len(lines)-1]
			if !bytes.Contains(last, []byte(`"state":"done"`)) || !bytes.Contains(last, []byte(`"summary"`)) {
				t.Errorf("%s on the coordinator ended with %s, want a done line with a summary", route, last)
			}
		}
	}
}

// TestFleetWarmResubmissionsCarrySummaries: a cache-hit job can finish on
// its worker before the worker's first reply reaches the coordinator;
// its done status must still carry the whole summary.
func TestFleetWarmResubmissionsCarrySummaries(t *testing.T) {
	f := startFleet(t, 2)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	client := dse.NewClient(f.coordTS.URL)
	spec := dse.JobSpec{Scenario: "fig2-small", Strategy: "sa", Runs: 2, MaxSteps: 8, Seed: 11}
	runAll(ctx, t, client, []dse.JobSpec{spec}) // cold

	// One at a time, so that each lands on an idle worker.
	const resubmissions = 300
	bad := 0
	for i := 0; i < resubmissions; i++ {
		st := runAll(ctx, t, client, []dse.JobSpec{spec})[0]
		if st.State != dse.JobDone || st.Summary == nil || st.Summary.Completed != spec.Runs {
			bad++
			if bad <= 5 {
				t.Errorf("%s", describe(st))
			}
		}
	}
	if bad > 0 {
		t.Errorf("%d of %d warm resubmissions ended without a full summary", bad, resubmissions)
	}
}

func describe(st *dse.JobStatus) string {
	if st.Summary == nil {
		return fmt.Sprintf("job %s %s with no summary", st.ID, st.State)
	}
	return fmt.Sprintf("job %s %s with %d/%d runs", st.ID, st.State, st.Summary.Completed, st.Summary.Requested)
}
