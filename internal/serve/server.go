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
	// MaxJobs bounds the number of concurrently executing async jobs
	// (each job still fans its runs out over its own worker pool);
	// non-positive selects 2. Jobs beyond the bound queue in submission
	// order.
	MaxJobs int
	// MaxFinished bounds how many finished (done/failed/canceled) job
	// records — status, spec, event buffer — the server retains; each new
	// submission evicts the oldest finished jobs beyond the bound, so a
	// long-lived server cannot grow without limit. Non-positive selects
	// 1000. Queued and running jobs are never evicted.
	MaxFinished int
	// Logf receives one line per lifecycle transition (nil = log.Printf).
	Logf func(format string, args ...interface{})
}

// Server is the DSE job service. Create with New, mount via Handler.
type Server struct {
	cache       *runner.ResultCache
	sem         chan struct{}
	maxFinished int
	logf        func(string, ...interface{})
	draining    atomic.Bool

	mu     sync.Mutex // guards jobs/order/nextID
	jobs   map[string]*job
	order  []string
	nextID int
}

// New creates a server.
func New(opts Options) *Server {
	maxJobs := opts.MaxJobs
	if maxJobs <= 0 {
		maxJobs = 2
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
		sem:         make(chan struct{}, maxJobs),
		maxFinished: maxFinished,
		logf:        logf,
		jobs:        map[string]*job{},
	}
}

// pruneLocked evicts the oldest finished jobs beyond the retention cap.
// Queued and running jobs are untouched. Caller holds s.mu.
func (s *Server) pruneLocked() {
	finished := 0
	for _, id := range s.order {
		if terminal(s.jobs[id].snapshot().State) {
			finished++
		}
	}
	if finished <= s.maxFinished {
		return
	}
	keep := s.order[:0]
	for _, id := range s.order {
		if finished > s.maxFinished && terminal(s.jobs[id].snapshot().State) {
			delete(s.jobs, id)
			finished--
			continue
		}
		keep = append(keep, id)
	}
	s.order = keep
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
	n := 0
	for _, j := range s.jobs {
		if !terminal(j.snapshot().State) {
			n++
		}
	}
	return n
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
	mux.HandleFunc("POST /v1/run", s.handleRunSync)
	return mux
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func writeJSON(w http.ResponseWriter, code int, v interface{}) {
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

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, errorEnvelope{Error: APIError{Code: errorCode(code), Message: err.Error()}})
}

// CodeDraining is the stable error-envelope code of a 503 refused by a
// draining server. Coordinators and clients key their re-route/retry
// logic on the 503 status; the code makes the refusal diagnosable.
const CodeDraining = "draining"

// writeDraining refuses a submission on a draining server: 503, a
// Retry-After hint, and the "draining" envelope code.
func writeDraining(w http.ResponseWriter) {
	w.Header().Set("Retry-After", "1")
	writeJSON(w, http.StatusServiceUnavailable, errorEnvelope{Error: APIError{
		Code:    CodeDraining,
		Message: "serve: draining — not accepting new jobs; retry against the coordinator",
	}})
}

func (s *Server) handleScenarios(w http.ResponseWriter, r *http.Request) {
	WriteScenarios(w)
}

// WriteScenarios writes the scenario catalog as the GET /scenarios JSON.
// Package-level so the fleet coordinator can answer the endpoint without
// owning a job server.
func WriteScenarios(w http.ResponseWriter) {
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
	writeJSON(w, http.StatusOK, out)
}

// CacheInfo is the /cache wire shape: whether caching is on, plus the
// full cache statistics (aggregate counters, policy, capacity, and the
// per-shard breakdown) when it is.
type CacheInfo struct {
	Enabled bool `json:"enabled"`
	memo.Stats
}

func (s *Server) handleCache(w http.ResponseWriter, r *http.Request) {
	if s.cache == nil {
		writeJSON(w, http.StatusOK, CacheInfo{Enabled: false})
		return
	}
	writeJSON(w, http.StatusOK, CacheInfo{Enabled: true, Stats: s.cache.Stats()})
}

// maxSpecBytes bounds a job-spec request body. Inline models are a few
// hundred KB at the corpus's largest; 8 MiB leaves headroom without
// letting an unauthenticated client stream gigabytes into the drain.
const maxSpecBytes = 8 << 20

// DecodeSpec reads a JobSpec, rejecting unknown fields so typos (and
// retired knobs such as "sched") surface as 400s instead of
// silently-default jobs. The fleet coordinator shares it with the job
// server, so both reject the same bodies the same way. The (size-bounded)
// body is drained to EOF: json.Decoder stops at the end of the first
// value, and net/http only arms its client-disconnect detection (the
// background read that cancels the request context) once the handler has
// consumed the body — without the drain, a /run client hanging up would
// never cancel the computation.
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

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeDraining(w)
		return
	}
	spec, err := DecodeSpec(w, r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	res, err := resolve(spec)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	ctx, cancel := context.WithCancel(context.Background())
	j := &job{cancel: cancel}
	s.mu.Lock()
	s.nextID++
	id := fmt.Sprintf("job-%06d", s.nextID)
	j.status = JobStatus{ID: id, State: StateQueued, Spec: *spec, Submitted: time.Now().UTC()}
	s.jobs[id] = j
	s.order = append(s.order, id)
	s.pruneLocked()
	s.mu.Unlock()
	s.logf("serve: %s queued (%s, strategy %s, %d runs)", id, specName(spec), res.factory.Name(), res.runs)
	go s.execute(ctx, j, res)
	writeJSON(w, http.StatusAccepted, j.snapshot())
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

// execute runs an async job: waits for a slot, drives the multi-run
// engine, and publishes events and the final state.
func (s *Server) execute(ctx context.Context, j *job, res *resolved) {
	// Queued: wait for an execution slot, but honor cancellation.
	select {
	case s.sem <- struct{}{}:
		defer func() { <-s.sem }()
	case <-ctx.Done():
		j.setState(StateCanceled, time.Now().UTC())
		s.logf("serve: %s canceled while queued", j.snapshot().ID)
		return
	}
	if ctx.Err() != nil {
		j.setState(StateCanceled, time.Now().UTC())
		return
	}
	j.setState(StateRunning, time.Now().UTC())
	summary, err := s.runJob(ctx, j, res)
	now := time.Now().UTC()
	st := j.snapshot()
	switch {
	case err == nil:
		j.mu.Lock()
		j.status.Summary = summary
		j.mu.Unlock()
		j.setState(StateDone, now)
		s.logf("serve: %s done (%d/%d runs, best cost %.4f, %d cache hits, %.1f ms)",
			st.ID, summary.Completed, summary.Requested, summary.BestCost, summary.CacheHits, summary.WallMS)
	case ctx.Err() != nil:
		j.mu.Lock()
		j.status.Summary = summary // partial aggregate of the completed runs
		j.mu.Unlock()
		j.setState(StateCanceled, now)
		s.logf("serve: %s canceled (%d runs completed)", st.ID, summaryCompleted(summary))
	default:
		j.mu.Lock()
		j.status.Error = err.Error()
		j.mu.Unlock()
		j.setState(StateFailed, now)
		s.logf("serve: %s failed: %v", st.ID, err)
	}
}

func summaryCompleted(s *JobSummary) int {
	if s == nil {
		return 0
	}
	return s.Completed
}

// runJob drives one resolved spec on the engine, publishing per-run
// events. Used by both the async path and the synchronous /run path.
func (s *Server) runJob(ctx context.Context, j *job, res *resolved) (*JobSummary, error) {
	fn, err := s.runFunc(res)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	spec := j.snapshot().Spec
	agg, err := runner.Run(ctx, res.factory.App(), runner.Options{
		Runs:     res.runs,
		Workers:  spec.Workers,
		BaseSeed: spec.Seed,
		OnResult: func(r runner.RunResult) { j.addEvent(eventOf(r)) },
	}, fn)
	wall := time.Since(start)
	var summary *JobSummary
	if agg != nil {
		summary = summarize(agg, wall)
	}
	return summary, err
}

// runFunc wraps a resolved job's factory in the server's result cache,
// warm-starting it from the best cached donor on its instance pair when
// the spec asks for transfer (a no-op without a cache or donor).
func (s *Server) runFunc(res *resolved) (runner.RunFunc, error) {
	return runner.WithCache(runner.CacheConfig{Cache: s.cache, Factory: res.factory, MaxSteps: res.maxSteps, Transfer: res.transfer})
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
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobFor(r)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("serve: no such job %q", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, j.snapshot())
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobFor(r)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("serve: no such job %q", r.PathValue("id")))
		return
	}
	j.cancel()
	s.logf("serve: %s cancellation requested", j.snapshot().ID)
	writeJSON(w, http.StatusAccepted, j.snapshot())
}

// handleStream replays the job's buffered run events as NDJSON, then
// follows live ones, and closes with a {"summary": ...} (or {"error":
// ...}) line once the job reaches a terminal state. A disconnecting
// watcher stops streaming but does not cancel the job — use DELETE for
// that (or the synchronous /run endpoint, whose lifetime is the request).
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobFor(r)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("serve: no such job %q", r.PathValue("id")))
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	if flusher != nil {
		// Push the headers to the client immediately: a streaming consumer
		// must see the response open before the first event exists.
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

// handleRunSync computes a job inside the request: per-run NDJSON events
// stream as they complete, a final summary line closes the body. The run
// inherits the request context, so a client disconnect cancels the
// in-flight runs within one search step — and since truncated runs error
// out, nothing partial enters the result cache.
func (s *Server) handleRunSync(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeDraining(w)
		return
	}
	spec, err := DecodeSpec(w, r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	res, err := resolve(spec)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	fn, err := s.runFunc(res)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	if flusher != nil {
		// Headers must reach the client before the computation starts:
		// the caller watches the stream (and may hang up to cancel).
		flusher.Flush()
	}
	enc := json.NewEncoder(w)
	start := time.Now()
	agg, runErr := runner.Run(r.Context(), res.factory.App(), runner.Options{
		Runs:     res.runs,
		Workers:  spec.Workers,
		BaseSeed: spec.Seed,
		OnResult: func(rr runner.RunResult) {
			enc.Encode(eventOf(rr))
			if flusher != nil {
				flusher.Flush()
			}
		},
	}, fn)
	final := map[string]interface{}{}
	if agg != nil {
		final["summary"] = summarize(agg, time.Since(start))
	}
	switch {
	case runErr == nil:
		final["state"] = StateDone
	case r.Context().Err() != nil:
		final["state"] = StateCanceled
	default:
		final["state"] = StateFailed
		final["error"] = runErr.Error()
	}
	enc.Encode(final)
	if flusher != nil {
		flusher.Flush()
	}
}
