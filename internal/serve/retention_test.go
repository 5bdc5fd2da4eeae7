package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

// post sends body to path through h, with no socket, under ctx.
func post(ctx context.Context, h http.Handler, path, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)).WithContext(ctx)
	h.ServeHTTP(rec, req)
	return rec
}

// submitJob posts a job through h and returns its ID.
func submitJob(t *testing.T, h http.Handler, seed int) string {
	t.Helper()
	rec := post(context.Background(), h, "/v1/jobs", fmt.Sprintf(`{"scenario":"pipeline-chain-tiny","seed":%d}`, seed))
	var st JobStatus
	if rec.Code != http.StatusAccepted || json.Unmarshal(rec.Body.Bytes(), &st) != nil {
		t.Fatalf("POST /v1/jobs = %d: %s", rec.Code, rec.Body)
	}
	return st.ID
}

// eventually polls cond until it holds, failing the test after 30 s.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(30 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting until %s", what)
		}
	}
}

// resident lists the resident job IDs as GET /v1/jobs reports them.
func resident(t *testing.T, h http.Handler) []string {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/jobs", nil))
	var all []JobStatus
	if err := json.Unmarshal(rec.Body.Bytes(), &all); err != nil {
		t.Fatal(err)
	}
	ids := []string{}
	for _, st := range all {
		ids = append(ids, st.ID)
	}
	return ids
}

// statusCode is GET /v1/jobs/{id}'s status code.
func statusCode(h http.Handler, id string) int {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/jobs/"+id, nil))
	return rec.Code
}

func jobID(n int) string { return fmt.Sprintf("job-%06d", n) }

// TestActiveJobsCountsUnfinished pins ActiveJobs to the queued and
// running jobs: it matches JobStates while one job runs and two wait,
// and reads 0 once they have all finished.
func TestActiveJobsCountsUnfinished(t *testing.T) {
	slot := make(chan struct{}, 1) // one job at a time, as MaxJobs: 1 on the local executor
	release := make(chan struct{})
	started := make(chan struct{}, 3)
	s := New(Options{Logf: t.Logf, Executor: execFunc(func(_ context.Context, _ Job, start func(string), _ func(RunEvent)) (*JobSummary, error) {
		slot <- struct{}{}
		defer func() { <-slot }()
		start("")
		started <- struct{}{}
		<-release
		return &JobSummary{}, nil
	})})
	h := s.Handler()
	check := func(want int) {
		t.Helper()
		states := s.JobStates()
		if n := s.ActiveJobs(); n != want || states[StateQueued]+states[StateRunning] != want {
			t.Fatalf("ActiveJobs() = %d with states %v, want %d", n, states, want)
		}
	}
	for i := 0; i < 3; i++ {
		submitJob(t, h, i)
	}
	<-started
	check(3)
	if states := s.JobStates(); states[StateRunning] != 1 || states[StateQueued] != 2 {
		t.Fatalf("states %v, want one running and two queued", states)
	}
	close(release)
	waitIdle(t, s)
	check(0)
	if states := s.JobStates(); states[StateDone] != 3 {
		t.Fatalf("states %v after WaitIdle, want three done", states)
	}
}

// TestRetentionSkipsUnfinished pins the eviction order: finished records
// leave oldest first by submission order, a running job is never
// evicted however old, and it is the next to go once it finishes.
func TestRetentionSkipsUnfinished(t *testing.T) {
	release := make(chan struct{})
	s := New(Options{MaxFinished: 2, Logf: t.Logf, Executor: execFunc(func(_ context.Context, job Job, start func(string), _ func(RunEvent)) (*JobSummary, error) {
		start("")
		if job.ID == jobID(1) {
			<-release
		}
		return &JobSummary{}, nil
	})})
	h := s.Handler()
	submitJob(t, h, 1)
	eventually(t, "job 1 runs", func() bool { st, _ := s.Status(jobID(1)); return st.State == StateRunning })
	for n := 2; n <= 6; n++ {
		submitJob(t, h, n)
		eventually(t, fmt.Sprintf("job %d finishes", n), func() bool { return s.ActiveJobs() == 1 })
		want := []string{jobID(1), jobID(n - 1), jobID(n)}
		if n == 2 {
			want = []string{jobID(1), jobID(2)}
		}
		if got := resident(t, h); !reflect.DeepEqual(got, want) {
			t.Fatalf("after job %d finished, resident %v, want %v", n, got, want)
		}
		if n >= 4 {
			if code := statusCode(h, jobID(n-2)); code != http.StatusNotFound {
				t.Fatalf("evicted %s answers %d, want 404", jobID(n-2), code)
			}
		}
	}
	if st, ok := s.Status(jobID(1)); !ok || st.State != StateRunning {
		t.Fatalf("running job 1: %+v, resident %v", st, ok)
	}
	close(release)
	waitIdle(t, s)
	if got, want := resident(t, h), []string{jobID(5), jobID(6)}; !reflect.DeepEqual(got, want) {
		t.Fatalf("after job 1 finished, resident %v, want %v", got, want)
	}
	if code := statusCode(h, jobID(1)); code != http.StatusNotFound {
		t.Fatalf("job 1 answers %d after it finished last, want 404", code)
	}
}

// TestListInSubmissionOrder: GET /v1/jobs lists the resident jobs in
// submission order, also where the IDs gain a digit and their string
// order stops agreeing with it.
func TestListInSubmissionOrder(t *testing.T) {
	s := New(Options{Logf: t.Logf, Executor: finishAtOnce})
	s.mu.Lock()
	s.nextID = 999998
	s.mu.Unlock()
	h := s.Handler()
	for seed := 1; seed <= 3; seed++ {
		submitJob(t, h, seed)
	}
	waitIdle(t, s)
	if got, want := resident(t, h), []string{"job-999999", "job-1000000", "job-1000001"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("GET /v1/jobs lists %v, want %v", got, want)
	}
}

// TestRetentionConcurrent submits 200 jobs from 8 goroutines through
// both submission endpoints, cancelling every fifth, and checks that the
// table ends with exactly the newest MaxFinished records and consistent
// bookkeeping.
func TestRetentionConcurrent(t *testing.T) {
	const jobs, workers, keep = 200, 8, 5
	var mu sync.Mutex
	ended := map[string]int{} // jobs by final state, from the lifecycle log
	logf := func(format string, args ...interface{}) {
		if f := strings.Fields(format); len(f) > 2 && (f[2] == StateDone || f[2] == StateCanceled) {
			mu.Lock()
			ended[f[2]]++
			mu.Unlock()
		}
	}
	s := New(Options{MaxFinished: keep, Logf: logf, Executor: execFunc(func(ctx context.Context, job Job, start func(string), _ func(RunEvent)) (*JobSummary, error) {
		start("")
		if job.Spec.Seed%5 == 4 { // a job the test cancels runs until it is cancelled
			<-ctx.Done()
			return nil, ctx.Err()
		}
		return &JobSummary{}, nil
	})})
	h := s.Handler()
	next := make(chan int)
	go func() {
		for k := 0; k < jobs; k++ {
			next <- k
		}
		close(next)
	}()
	var wg sync.WaitGroup
	errs := make(chan error, jobs)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range next {
				if err := submitOne(h, k); err != nil {
					errs <- err
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	waitIdle(t, s)
	eventually(t, "every job's end is logged", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return ended[StateDone]+ended[StateCanceled] == jobs
	})
	if ended[StateDone] != jobs-jobs/5 || ended[StateCanceled] != jobs/5 {
		t.Errorf("jobs ended %v, want %d done and %d canceled", ended, jobs-jobs/5, jobs/5)
	}

	var want []string
	for n := jobs - keep + 1; n <= jobs; n++ {
		want = append(want, jobID(n))
	}
	if got := resident(t, h); !reflect.DeepEqual(got, want) {
		t.Fatalf("resident %v, want the %d newest %v", got, keep, want)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	finished := 0
	keys := []string{}
	for id, j := range s.jobs {
		if terminal(j.state()) {
			finished++
		}
		keys = append(keys, id)
	}
	sort.Strings(keys)
	if s.finished != finished || !reflect.DeepEqual(s.order, keys) {
		t.Fatalf("finished = %d with %d terminal jobs resident; order %v, keys %v", s.finished, finished, s.order, keys)
	}
}

// submitOne submits job k: even k through POST /v1/jobs, odd k through
// POST /v1/run. When k%5 == 4 it cancels the job, by DELETE or by
// hanging up; a /v1/run stream that was not hung up on must end done.
func submitOne(h http.Handler, k int) error {
	body := fmt.Sprintf(`{"scenario":"pipeline-chain-tiny","seed":%d}`, k)
	cancelIt := k%5 == 4
	if k%2 == 1 {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		if cancelIt {
			time.AfterFunc(time.Millisecond, cancel)
		}
		rec := post(ctx, h, "/v1/run", body)
		var final struct{ State string }
		lines := bufio.NewScanner(rec.Body)
		for lines.Scan() {
			json.Unmarshal(lines.Bytes(), &final)
		}
		if rec.Code != http.StatusOK || !cancelIt && final.State != StateDone {
			return fmt.Errorf("POST /v1/run job %d = %d ending %q", k, rec.Code, final.State)
		}
		return nil
	}
	rec := post(context.Background(), h, "/v1/jobs", body)
	var st JobStatus
	if rec.Code != http.StatusAccepted || json.Unmarshal(rec.Body.Bytes(), &st) != nil {
		return fmt.Errorf("POST /v1/jobs job %d = %d: %s", k, rec.Code, rec.Body)
	}
	if cancelIt {
		del := httptest.NewRecorder()
		h.ServeHTTP(del, httptest.NewRequest(http.MethodDelete, "/v1/jobs/"+st.ID, nil))
		if del.Code != http.StatusAccepted {
			return fmt.Errorf("DELETE %s = %d", st.ID, del.Code)
		}
	}
	return nil
}
