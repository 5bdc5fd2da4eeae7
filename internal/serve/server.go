package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/memo"
	"repro/internal/runner"
	"repro/internal/scenario"
)

// Options configures a Server.
type Options struct {
	// Cache is the shared memoized result cache (nil disables caching —
	// every run recomputes).
	Cache *runner.ResultCache
	// MaxJobs bounds the number of concurrently executing jobs on the
	// local executor (each job still fans its runs out over its own
	// worker pool); non-positive selects 2. Jobs beyond the bound queue
	// in submission order, POST /run jobs included.
	MaxJobs int
	// MaxFinished bounds how many finished (done/failed/canceled) job
	// records — status, spec, event buffer — the server retains, so a
	// long-lived server cannot grow without limit. A job that finishes
	// beyond the bound evicts the oldest finished record, by submission
	// order; queued and running jobs are never evicted, and no submission
	// scans the table. Non-positive selects 1000.
	MaxFinished int
	// Logf receives one line per lifecycle transition (nil = log.Printf).
	Logf func(format string, args ...interface{})
	// Executor runs the accepted jobs (nil = the local executor: this
	// process's runner behind Cache, MaxJobs jobs at a time). The fleet
	// coordinator supplies one that relays each job to a worker.
	Executor Executor
}

// An Executor runs accepted jobs. Execute runs one job to its end: it
// calls start when the job leaves the queue, naming the fleet worker
// that runs it ("" for this process), calls emit for each completed run
// in run order, and returns the job's summary. When ctx is cancelled it
// returns ctx's error with the partial summary, or nil.
type Executor interface {
	Execute(ctx context.Context, job Job, start func(worker string), emit func(RunEvent)) (*JobSummary, error)
}

// Job is an accepted job as its Executor receives it.
type Job struct {
	ID   string
	Spec *JobSpec
	res  *resolved // the spec's runnable form, built when it was accepted
}

// local is the default Executor: the job's runs fan out on this
// process's runner, through the result cache, at most cap(sem) jobs at
// a time.
type local struct {
	cache *runner.ResultCache
	sem   chan struct{}
}

func (l *local) Execute(ctx context.Context, job Job, start func(string), emit func(RunEvent)) (*JobSummary, error) {
	select {
	case l.sem <- struct{}{}:
		defer func() { <-l.sem }()
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	start("")
	res := job.res
	// Transfer warm-starts from the best cached donor on the job's
	// instance pair (a no-op without a cache or a donor).
	fn, err := runner.WithCache(runner.CacheConfig{Cache: l.cache, Factory: res.factory, MaxSteps: res.maxSteps, Transfer: res.transfer})
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	agg, err := runner.Run(ctx, res.factory.App(), runner.Options{
		Runs:     res.runs,
		Workers:  job.Spec.Workers,
		BaseSeed: job.Spec.Seed,
		OnResult: func(r runner.RunResult) { emit(eventOf(r)) },
	}, fn)
	if agg == nil {
		return nil, err
	}
	return summarize(agg, time.Since(t0)), err
}

// Server is the DSE job service. Create with New, mount via Handler.
type Server struct {
	cache       *runner.ResultCache
	exec        Executor
	maxFinished int
	logf        func(string, ...interface{})
	draining    atomic.Bool

	mu       sync.Mutex // guards jobs/order/nextID/finished and each job's finished flag
	jobs     map[string]*job
	order    []string // the resident jobs' IDs in submission order
	nextID   int
	finished int // resident jobs in a terminal state
}

// New creates a server.
func New(opts Options) *Server {
	exec := opts.Executor
	if exec == nil {
		maxJobs := opts.MaxJobs
		if maxJobs <= 0 {
			maxJobs = 2
		}
		exec = &local{cache: opts.Cache, sem: make(chan struct{}, maxJobs)}
	}
	maxFinished := opts.MaxFinished
	if maxFinished <= 0 {
		maxFinished = 1000
	}
	logf := opts.Logf
	if logf == nil {
		logf = log.Printf
	}
	return &Server{
		cache:       opts.Cache,
		exec:        exec,
		maxFinished: maxFinished,
		logf:        logf,
		jobs:        map[string]*job{},
	}
}

// retire moves j to its terminal state and counts it as finished, then
// evicts the oldest finished records, by submission order, while more
// than MaxFinished are resident. One critical section covers both, so a
// client that has seen the state also sees the eviction. The walk passes
// only the queued and running jobs older than each evicted record, so
// retention never scans the table.
func (s *Server) retire(j *job, state string, summary *JobSummary, errMsg string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j.finish(state, summary, errMsg)
	j.finished = true
	s.finished++
	for i := 0; s.finished > s.maxFinished; {
		id := s.order[i]
		if !s.jobs[id].finished {
			i++ // queued or running: stays
			continue
		}
		delete(s.jobs, id)
		s.finished--
		// Shift the unfinished jobs skipped so far over the gap.
		copy(s.order[1:i+1], s.order[:i])
		s.order = s.order[1:]
	}
}

// Cache returns the server's result cache (nil when disabled).
func (s *Server) Cache() *runner.ResultCache { return s.cache }

// Drain puts the server into graceful-drain mode: new submissions
// (POST /jobs and POST /run) are refused with 503 and the stable error
// code "draining", while status, stream, cancel, and metrics requests —
// and every job already queued or running — proceed to completion. A
// fleet worker drains on SIGTERM: deregister from the coordinator,
// Drain, WaitIdle, then exit. Drain is idempotent and cannot be undone.
func (s *Server) Drain() {
	if !s.draining.Swap(true) {
		s.logf("serve: draining — refusing new submissions, finishing in-flight jobs")
	}
}

// Draining reports whether Drain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// ActiveJobs counts jobs not yet in a terminal state (queued + running).
func (s *Server) ActiveJobs() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.jobs) - s.finished
}

// WaitIdle blocks until every queued and running job has reached a
// terminal state, or ctx expires (returning its error). The drain
// sequence calls it after Drain so no new work can arrive behind it.
func (s *Server) WaitIdle(ctx context.Context) error {
	tick := time.NewTicker(20 * time.Millisecond)
	defer tick.Stop()
	for {
		if s.ActiveJobs() == 0 {
			return nil
		}
		select {
		case <-tick.C:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// Status returns job id's status, if the job is resident.
func (s *Server) Status(id string) (JobStatus, bool) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return JobStatus{}, false
	}
	return j.snapshot(), true
}

// JobStates counts the resident jobs by state; all five states are
// present, so dashboards never see a vanishing series.
func (s *Server) JobStates() map[string]int {
	states := map[string]int{
		StateQueued: 0, StateRunning: 0, StateDone: 0, StateFailed: 0, StateCanceled: 0,
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, j := range s.jobs {
		states[j.state()]++
	}
	return states
}

// Handler mounts the API. Every endpoint lives under /v1.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	mux.HandleFunc("GET /v1/scenarios", s.handleScenarios)
	mux.HandleFunc("GET /v1/cache", s.handleCache)
	mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/jobs/{id}/stream", s.handleStream)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("POST /v1/run", s.handleRun)
	return mux
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// WriteJSON writes v as the indented JSON body of a response with the
// given status code.
func WriteJSON(w http.ResponseWriter, code int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// APIError is the uniform error envelope of the /v1 API: every non-2xx
// JSON response has the shape {"error":{"code":...,"message":...}}. The
// code is a stable machine-readable slug; the message is for humans.
type APIError struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

type errorEnvelope struct {
	Error APIError `json:"error"`
}

// errorCode maps an HTTP status to the envelope's stable slug.
func errorCode(status int) string {
	switch status {
	case http.StatusBadRequest:
		return "bad_request"
	case http.StatusNotFound:
		return "not_found"
	case http.StatusRequestEntityTooLarge:
		return "too_large"
	case http.StatusInternalServerError:
		return "internal"
	default:
		return strings.ToLower(strings.ReplaceAll(http.StatusText(status), " ", "_"))
	}
}

// WriteError writes the error envelope with the given status and code.
func WriteError(w http.ResponseWriter, status int, code, message string) {
	WriteJSON(w, status, errorEnvelope{Error: APIError{Code: code, Message: message}})
}

func writeError(w http.ResponseWriter, status int, err error) {
	WriteError(w, status, errorCode(status), err.Error())
}

// CodeDraining is the stable error-envelope code of a 503 refused by a
// draining server. Coordinators and clients key their re-route/retry
// logic on the 503 status; the code makes the refusal diagnosable.
const CodeDraining = "draining"

// writeDraining refuses a submission on a draining server: 503, a
// Retry-After hint, and the "draining" envelope code.
func writeDraining(w http.ResponseWriter) {
	w.Header().Set("Retry-After", "1")
	WriteError(w, http.StatusServiceUnavailable, CodeDraining,
		"serve: draining — not accepting new jobs; retry against the coordinator")
}

// handleScenarios writes the scenario catalog.
func (s *Server) handleScenarios(w http.ResponseWriter, r *http.Request) {
	type entry struct {
		Name       string  `json:"name"`
		Family     string  `json:"family"`
		Size       string  `json:"size"`
		Stresses   string  `json:"stresses"`
		DeadlineMS float64 `json:"deadlineMS,omitempty"`
		Runs       int     `json:"runs"`
	}
	var out []entry
	for _, sc := range scenario.All() {
		out = append(out, entry{
			Name: sc.Name, Family: sc.Family, Size: sc.Size.String(),
			Stresses: sc.Stresses, DeadlineMS: sc.DeadlineMS, Runs: sc.Budget.Runs,
		})
	}
	WriteJSON(w, http.StatusOK, out)
}

// CacheInfo is the /cache wire shape: whether caching is on, plus the
// cache statistics (counters, resident entries, policy and capacity)
// when it is.
type CacheInfo struct {
	Enabled bool `json:"enabled"`
	memo.Stats
}

func (s *Server) handleCache(w http.ResponseWriter, r *http.Request) {
	if s.cache == nil {
		WriteJSON(w, http.StatusOK, CacheInfo{Enabled: false})
		return
	}
	WriteJSON(w, http.StatusOK, CacheInfo{Enabled: true, Stats: s.cache.Stats()})
}

// maxSpecBytes bounds a job-spec request body. Inline models are a few
// hundred KB at the corpus's largest; 8 MiB leaves headroom without
// letting an unauthenticated client stream gigabytes into the drain.
const maxSpecBytes = 8 << 20

// maxInlineTasks and maxInlineResources bound an inline model, which an
// 8 MiB body would let hold ~900k tasks: preparing an application of N
// tasks allocates its N²/8-byte precedence closure inside the handler.
// Both sit far above the corpus (160 tasks, 6 resources).
const (
	maxInlineTasks     = 4096
	maxInlineResources = 256 // of each kind
)

// DecodeSpec reads a JobSpec, rejecting unknown fields so typos (and
// retired knobs such as "sched") surface as 400s instead of
// silently-default jobs. The (size-bounded) body is drained to EOF:
// json.Decoder stops at the end of the first value, and net/http only
// arms its client-disconnect detection (the background read that
// cancels the request context) once the handler has consumed the body —
// without the drain, a /run client hanging up would never cancel the
// computation.
func DecodeSpec(w http.ResponseWriter, r *http.Request) (*JobSpec, error) {
	body := http.MaxBytesReader(w, r.Body, maxSpecBytes)
	var spec JobSpec
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return nil, fmt.Errorf("serve: decoding job spec: %w", err)
	}
	if _, err := io.Copy(io.Discard, body); err != nil {
		return nil, fmt.Errorf("serve: reading job spec: %w", err)
	}
	return &spec, nil
}

// accept validates a submission and enters it in the job table as a
// queued job, which then runs on the executor under a context derived
// from parent. A refused submission is answered here.
func (s *Server) accept(w http.ResponseWriter, r *http.Request, parent context.Context) (*job, bool) {
	if s.draining.Load() {
		writeDraining(w)
		return nil, false
	}
	spec, err := DecodeSpec(w, r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return nil, false
	}
	res, err := resolve(spec)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return nil, false
	}
	ctx, cancel := context.WithCancel(parent)
	j := &job{cancel: cancel}
	s.mu.Lock()
	s.nextID++
	id := fmt.Sprintf("job-%06d", s.nextID)
	j.status = JobStatus{ID: id, State: StateQueued, Spec: *spec, Submitted: time.Now().UTC()}
	s.jobs[id] = j
	s.order = append(s.order, id)
	s.mu.Unlock()
	s.logf("serve: %s queued (%s, strategy %s, %d runs)", id, specName(spec), res.factory.Name(), res.runs)
	go s.execute(ctx, j, Job{ID: id, Spec: spec, res: res})
	return j, true
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if j, ok := s.accept(w, r, context.Background()); ok {
		WriteJSON(w, http.StatusAccepted, j.snapshot())
	}
}

// handleRun accepts a job whose lifetime is the request and streams it.
// The job queues and runs like any other, but a client that disconnects
// cancels it within one search step, and since truncated runs error out,
// nothing partial enters the result cache.
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	if j, ok := s.accept(w, r, r.Context()); ok {
		stream(w, r, j)
	}
}

// specName names a spec for log lines.
func specName(spec *JobSpec) string {
	if spec.Scenario != "" {
		return "scenario " + spec.Scenario
	}
	if spec.App != nil {
		return "inline app " + spec.App.Name
	}
	return "inline models"
}

// execute runs an accepted job on the executor and publishes its events
// and its final state.
func (s *Server) execute(ctx context.Context, j *job, task Job) {
	start := func(worker string) {
		j.mu.Lock()
		j.status.Worker = worker
		j.mu.Unlock()
		j.setState(StateRunning, time.Now().UTC())
	}
	summary, err := s.exec.Execute(ctx, task, start, j.addEvent)
	switch {
	case err == nil:
		s.retire(j, StateDone, summary, "")
		s.logf("serve: %s done (%d/%d runs, best cost %.4f, %d cache hits, %.1f ms)",
			task.ID, summary.Completed, summary.Requested, summary.BestCost, summary.CacheHits, summary.WallMS)
	case ctx.Err() != nil:
		s.retire(j, StateCanceled, summary, "") // partial aggregate of the completed runs
		s.logf("serve: %s canceled (%d runs completed)", task.ID, summaryCompleted(summary))
	default:
		s.retire(j, StateFailed, nil, err.Error())
		s.logf("serve: %s failed: %v", task.ID, err)
	}
}

func summaryCompleted(s *JobSummary) int {
	if s == nil {
		return 0
	}
	return s.Completed
}

func (s *Server) jobFor(r *http.Request) (*job, bool) {
	s.mu.Lock()
	j, ok := s.jobs[r.PathValue("id")]
	s.mu.Unlock()
	return j, ok
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	out := make([]JobStatus, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.jobs[id].snapshot())
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, k int) bool { return out[i].ID < out[k].ID })
	WriteJSON(w, http.StatusOK, out)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobFor(r)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("serve: no such job %q", r.PathValue("id")))
		return
	}
	WriteJSON(w, http.StatusOK, j.snapshot())
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobFor(r)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("serve: no such job %q", r.PathValue("id")))
		return
	}
	j.cancel()
	s.logf("serve: %s cancellation requested", j.snapshot().ID)
	WriteJSON(w, http.StatusAccepted, j.snapshot())
}

func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobFor(r)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("serve: no such job %q", r.PathValue("id")))
		return
	}
	stream(w, r, j)
}

// stream writes the job's buffered run events as NDJSON, then follows
// live ones, and closes with a {"state", "summary", "error"} line once
// the job reaches a terminal state. A client hanging up stops the
// stream; it cancels the job only when the job is the request's own
// (POST /run) — DELETE cancels any job.
func stream(w http.ResponseWriter, r *http.Request, j *job) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	if flusher != nil {
		// Push the headers to the client immediately, before the job
		// leaves the queue: a streaming consumer must see the response
		// open before the first event exists.
		flusher.Flush()
	}
	enc := json.NewEncoder(w)
	wake, unsubscribe := j.subscribe()
	defer unsubscribe()
	next := 0
	for {
		events, state := j.eventsFrom(next)
		for _, e := range events {
			if err := enc.Encode(e); err != nil {
				return
			}
		}
		next += len(events)
		if flusher != nil && len(events) > 0 {
			flusher.Flush()
		}
		if terminal(state) {
			// Drain any events added between the copy and the transition.
			if events, _ := j.eventsFrom(next); len(events) == 0 {
				break
			}
			continue
		}
		select {
		case <-wake:
		case <-r.Context().Done():
			return
		}
	}
	st := j.snapshot()
	final := map[string]interface{}{"state": st.State}
	if st.Summary != nil {
		final["summary"] = st.Summary
	}
	if st.Error != "" {
		final["error"] = st.Error
	}
	enc.Encode(final)
	if flusher != nil {
		flusher.Flush()
	}
}
