package fleet

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/memo"
	"repro/internal/serve"
)

// maxAttempts bounds the dispatches of one job before it fails. Every
// worker death, drain refusal or broken stream costs one, so the bound
// only trips when the fleet is flapping.
const maxAttempts = 5

// Options configures a Coordinator.
type Options struct {
	// HeartbeatTimeout is the silence after which a worker is declared
	// dead: it leaves the ring and its in-flight jobs are re-dispatched to
	// the surviving owners. Non-positive selects 5s.
	HeartbeatTimeout time.Duration
	// SweepInterval is the death-detection cadence (non-positive selects
	// HeartbeatTimeout/4).
	SweepInterval time.Duration
	// Logf receives one line per fleet event (nil = log.Printf).
	Logf func(format string, args ...interface{})
}

// Coordinator fronts a fleet of dsed workers. Its job API is serve's,
// with the coordinator as the executor: each job runs on the worker that
// owns its result-cache fingerprint (serve.Job.RingKey) on a consistent-hash
// ring, relayed over that worker's POST /v1/run stream, and is
// re-dispatched when the worker dies or drains. Workers join with
// POST /v1/register, stay live with periodic POST /v1/heartbeat, and
// leave gracefully with POST /v1/deregister (drain: out of the ring
// immediately, in-flight jobs finish in place).
type Coordinator struct {
	heartbeatTimeout time.Duration
	sweepInterval    time.Duration
	logf             func(string, ...interface{})
	client           *http.Client
	srv              *serve.Server

	done      chan struct{}
	closeOnce sync.Once

	mu             sync.Mutex
	workers        map[string]*member
	ring           *Ring
	joined         chan struct{} // closed, and replaced, whenever a worker joins the ring
	requeues       uint64
	dispatchErrors uint64
}

// member is one registered worker.
type member struct {
	id       string
	url      string
	lastBeat time.Time
	draining bool
	// inflight cancels the jobs dispatched to this worker, by job ID.
	inflight map[string]context.CancelFunc
}

// NewCoordinator creates a coordinator and starts its heartbeat sweep.
// Close it to stop the background work.
func NewCoordinator(opts Options) *Coordinator {
	c := &Coordinator{
		heartbeatTimeout: opts.HeartbeatTimeout,
		sweepInterval:    opts.SweepInterval,
		logf:             opts.Logf,
		done:             make(chan struct{}),
		workers:          map[string]*member{},
		ring:             NewRing(DefaultReplicas),
		joined:           make(chan struct{}),
	}
	if c.heartbeatTimeout <= 0 {
		c.heartbeatTimeout = 5 * time.Second
	}
	if c.sweepInterval <= 0 {
		c.sweepInterval = c.heartbeatTimeout / 4
	}
	if c.logf == nil {
		c.logf = log.Printf
	}
	// Only the dial and the response headers are bounded: a relayed
	// stream lasts as long as its job, and a worker sends the headers
	// before the job waits for one of its slots.
	transport := http.DefaultTransport.(*http.Transport).Clone()
	transport.DialContext = (&net.Dialer{Timeout: 5 * time.Second}).DialContext
	transport.ResponseHeaderTimeout = 10 * time.Second
	c.client = &http.Client{Transport: transport}
	c.srv = serve.New(serve.Options{Executor: c, Logf: c.logf})
	go c.sweep()
	return c
}

// Close stops the sweep loop; jobs still waiting for a worker fail.
// Idempotent.
func (c *Coordinator) Close() { c.closeOnce.Do(func() { close(c.done) }) }

// Handler mounts the coordinator API under /v1: serve's job routes, so
// dse.Client and dseload work unchanged against a coordinator, behind
// the fleet's own healthz, cache and metrics and the worker-facing
// membership routes (register/heartbeat/deregister/workers).
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		serve.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok", "role": "coordinator"})
	})
	mux.HandleFunc("POST /v1/register", c.handleRegister)
	mux.HandleFunc("POST /v1/heartbeat", c.handleHeartbeat)
	mux.HandleFunc("POST /v1/deregister", c.handleDeregister)
	mux.HandleFunc("GET /v1/workers", c.handleWorkers)
	mux.HandleFunc("GET /v1/cache", c.handleCache)
	mux.HandleFunc("GET /v1/metrics", c.handleMetrics)
	mux.Handle("/", c.srv.Handler())
	return mux
}

// JoinRequest is the body of POST /v1/register, /v1/heartbeat, and
// /v1/deregister: the worker's stable ID plus the base URL the
// coordinator dials back (register; optional on heartbeat, where a
// changed URL updates the record).
type JoinRequest struct {
	ID  string `json:"id"`
	URL string `json:"url,omitempty"`
}

// JoinResponse acknowledges a register/heartbeat/deregister.
type JoinResponse struct {
	ID      string `json:"id"`
	State   string `json:"state"` // "active" or "draining"
	Workers int    `json:"workers"`
}

// WorkerInfo is one fleet member in GET /v1/workers.
type WorkerInfo struct {
	ID            string  `json:"id"`
	URL           string  `json:"url"`
	State         string  `json:"state"` // "active" or "draining"
	LastHeartbeat float64 `json:"lastHeartbeatMSAgo"`
	ActiveJobs    int     `json:"activeJobs"`
}

func decodeJoin(w http.ResponseWriter, r *http.Request) (*JoinRequest, bool) {
	var req JoinRequest
	body := http.MaxBytesReader(w, r.Body, 1<<16)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		serve.WriteError(w, http.StatusBadRequest, "bad_request", fmt.Sprintf("fleet: decoding join request: %v", err))
		return nil, false
	}
	io.Copy(io.Discard, body)
	if req.ID == "" {
		serve.WriteError(w, http.StatusBadRequest, "bad_request", "fleet: join request needs an id")
		return nil, false
	}
	return &req, true
}

func (c *Coordinator) handleRegister(w http.ResponseWriter, r *http.Request) {
	req, ok := decodeJoin(w, r)
	if !ok {
		return
	}
	if req.URL == "" {
		serve.WriteError(w, http.StatusBadRequest, "bad_request", "fleet: register needs the worker's base url")
		return
	}
	c.mu.Lock()
	m, known := c.workers[req.ID]
	if !known {
		m = &member{id: req.ID, inflight: map[string]context.CancelFunc{}}
		c.workers[req.ID] = m
	}
	m.url = req.URL
	m.lastBeat = time.Now()
	m.draining = false
	c.ring.Add(req.ID)
	n := c.ring.Len()
	close(c.joined) // wake the jobs waiting for an owner
	c.joined = make(chan struct{})
	c.mu.Unlock()
	if known {
		c.logf("fleet: worker %s re-registered at %s (%d on ring)", req.ID, req.URL, n)
	} else {
		c.logf("fleet: worker %s joined at %s (%d on ring)", req.ID, req.URL, n)
	}
	serve.WriteJSON(w, http.StatusOK, JoinResponse{ID: req.ID, State: "active", Workers: n})
}

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	req, ok := decodeJoin(w, r)
	if !ok {
		return
	}
	c.mu.Lock()
	m, known := c.workers[req.ID]
	if known {
		m.lastBeat = time.Now()
		if req.URL != "" {
			m.url = req.URL
		}
	}
	var state string
	var n int
	if known {
		state = memberState(m)
		n = c.ring.Len()
	}
	c.mu.Unlock()
	if !known {
		// The worker believes it is registered but the coordinator does
		// not know it (coordinator restart, earlier death verdict). 404
		// with a dedicated code tells the agent to re-register.
		serve.WriteError(w, http.StatusNotFound, "unknown_worker", fmt.Sprintf("fleet: unknown worker %q — re-register", req.ID))
		return
	}
	serve.WriteJSON(w, http.StatusOK, JoinResponse{ID: req.ID, State: state, Workers: n})
}

func (c *Coordinator) handleDeregister(w http.ResponseWriter, r *http.Request) {
	req, ok := decodeJoin(w, r)
	if !ok {
		return
	}
	c.mu.Lock()
	m, known := c.workers[req.ID]
	if known {
		m.draining = true
		c.ring.Remove(req.ID)
	}
	n := c.ring.Len()
	c.mu.Unlock()
	if !known {
		serve.WriteError(w, http.StatusNotFound, "unknown_worker", fmt.Sprintf("fleet: unknown worker %q", req.ID))
		return
	}
	c.logf("fleet: worker %s draining — off the ring (%d remain), in-flight jobs finish in place", req.ID, n)
	serve.WriteJSON(w, http.StatusOK, JoinResponse{ID: req.ID, State: "draining", Workers: n})
}

func memberState(m *member) string {
	if m.draining {
		return "draining"
	}
	return "active"
}

func (c *Coordinator) handleWorkers(w http.ResponseWriter, r *http.Request) {
	now := time.Now()
	c.mu.Lock()
	out := make([]WorkerInfo, 0, len(c.workers))
	for _, m := range c.workers {
		out = append(out, WorkerInfo{
			ID: m.id, URL: m.url, State: memberState(m),
			LastHeartbeat: float64(now.Sub(m.lastBeat).Microseconds()) / 1e3,
			ActiveJobs:    len(m.inflight),
		})
	}
	c.mu.Unlock()
	sort.Slice(out, func(i, k int) bool { return out[i].ID < out[k].ID })
	serve.WriteJSON(w, http.StatusOK, out)
}

// errDraining is a dispatch refused by a draining worker.
var errDraining = errors.New("fleet: worker draining")

// Execute implements serve.Executor. The job waits, queued, until the
// ring has an owner for its fingerprint, then runs on that worker over
// its POST /v1/run stream, shown running once the worker has accepted
// it. A stream that breaks or ends without a final line, and a worker
// that refuses because it drains, re-dispatch the job to the current
// owner; run indices already relayed are not emitted again, as the core
// invariant makes a recomputed run bit-identical apart from its cached
// flag.
func (c *Coordinator) Execute(ctx context.Context, job serve.Job, start func(string), emit func(serve.RunEvent)) (*serve.JobSummary, error) {
	key, err := job.RingKey()
	if err != nil {
		return nil, err
	}
	body, err := json.Marshal(job.Spec)
	if err != nil {
		return nil, err
	}
	relayed := map[int]bool{}
	relay := func(ev serve.RunEvent) {
		if !relayed[ev.Run] {
			relayed[ev.Run] = true
			emit(ev)
		}
	}
	for attempt := 1; ; attempt++ {
		m, url, dctx, err := c.assign(ctx, job.ID, key)
		if err != nil {
			return nil, err
		}
		summary, final, err := c.dispatch(dctx, m, url, body, start, relay)
		c.release(m, job.ID)
		if final || ctx.Err() != nil {
			return summary, err
		}
		if attempt == maxAttempts {
			return nil, fmt.Errorf("fleet: job gave up after %d dispatch attempts: %w", maxAttempts, err)
		}
		c.mu.Lock()
		c.requeues++
		c.mu.Unlock()
		c.logf("fleet: %s re-dispatched after attempt %d on %s: %v", job.ID, attempt, m.id, err)
	}
}

// assign waits until the ring has an owner for key and books job id's
// dispatch to it, returning the owner and its current URL. The returned
// context is cancelled if that worker is dropped.
func (c *Coordinator) assign(ctx context.Context, id, key string) (*member, string, context.Context, error) {
	for {
		c.mu.Lock()
		if owner, ok := c.ring.Owner(key); ok {
			m := c.workers[owner]
			url := m.url
			dctx, cancel := context.WithCancel(ctx)
			m.inflight[id] = cancel
			c.mu.Unlock()
			return m, url, dctx, nil
		}
		joined := c.joined
		c.mu.Unlock()
		select {
		case <-joined:
		case <-ctx.Done():
			return nil, "", nil, ctx.Err()
		case <-c.done:
			return nil, "", nil, errors.New("fleet: coordinator closed")
		}
	}
}

// release ends job id's dispatch booking on m.
func (c *Coordinator) release(m *member, id string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if cancel, ok := m.inflight[id]; ok {
		cancel()
		delete(m.inflight, id)
	}
}

// streamLine is one NDJSON line of a /v1/run stream: a run event, or
// the final line, which carries the state.
type streamLine struct {
	serve.RunEvent
	State   string            `json:"state"`
	Summary *serve.JobSummary `json:"summary"`
	Error   string            `json:"error"`
}

// dispatch runs one attempt of a job on worker m at url: it POSTs the
// spec to the worker's /v1/run, calls start once the worker has accepted
// it, and emits each event line. final reports the job's outcome — a
// done summary, or the worker's failure; otherwise err says why the
// attempt failed. A refused dispatch marks the worker: a 503 takes it
// off the ring as draining, anything else drops it as dead (alive after
// all, it re-registers on its next heartbeat). A broken stream does not:
// heartbeats decide death.
func (c *Coordinator) dispatch(ctx context.Context, m *member, url string, body []byte, start func(string), emit func(serve.RunEvent)) (summary *serve.JobSummary, final bool, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/v1/run", bytes.NewReader(body))
	if err != nil {
		return nil, true, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.client.Do(req)
	if err == nil && resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		resp.Body.Close()
		if resp.StatusCode == http.StatusServiceUnavailable {
			err = errDraining
		} else {
			err = fmt.Errorf("fleet: worker answered %s: %s", resp.Status, bytes.TrimSpace(msg))
		}
	}
	if err != nil {
		if ctx.Err() == nil {
			c.dispatchFailed(m, err)
		}
		return nil, false, err
	}
	defer resp.Body.Close()
	start(m.id)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	for sc.Scan() {
		var l streamLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			return nil, false, fmt.Errorf("fleet: bad stream line from %s: %v", m.id, err)
		}
		switch {
		case l.State == "":
			emit(l.RunEvent)
		case l.State == serve.StateDone && l.Summary != nil:
			return l.Summary, true, nil
		case l.State == serve.StateFailed:
			return nil, true, errors.New(l.Error)
		default:
			return nil, false, fmt.Errorf("fleet: %s ended the job %s", m.id, l.State)
		}
	}
	return nil, false, fmt.Errorf("fleet: stream from %s ended without a final line (%v)", m.id, sc.Err())
}

// dispatchFailed books a failed dispatch to m.
func (c *Coordinator) dispatchFailed(m *member, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.dispatchErrors++
	if c.workers[m.id] != m {
		return // dropped meanwhile
	}
	if errors.Is(err, errDraining) {
		m.draining = true
		c.ring.Remove(m.id)
		return
	}
	c.dropWorkerLocked(m.id, fmt.Sprintf("dispatch failed: %v", err))
}

// dropWorkerLocked declares a worker dead: off the ring, out of the
// member table, and every job dispatched to it cancelled there, to be
// re-dispatched. Caller holds c.mu.
func (c *Coordinator) dropWorkerLocked(id, why string) {
	m, known := c.workers[id]
	if !known {
		return
	}
	delete(c.workers, id)
	c.ring.Remove(id)
	for _, cancel := range m.inflight {
		cancel()
	}
	c.logf("fleet: worker %s dropped (%s) — %d in-flight jobs re-dispatched, %d workers remain",
		id, why, len(m.inflight), c.ring.Len())
}

// sweep is the liveness monitor: workers silent past the heartbeat
// timeout are dropped and their jobs re-dispatched.
func (c *Coordinator) sweep() {
	tick := time.NewTicker(c.sweepInterval)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
		case <-c.done:
			return
		}
		now := time.Now()
		c.mu.Lock()
		for id, m := range c.workers {
			if now.Sub(m.lastBeat) > c.heartbeatTimeout {
				c.dropWorkerLocked(id, "missed heartbeats")
			}
		}
		c.mu.Unlock()
	}
}

// WorkerCache is one worker's cache statistics in the fleet aggregate.
type WorkerCache struct {
	ID string `json:"id"`
	serve.CacheInfo
}

// CacheInfo is the fleet-wide GET /v1/cache shape: the summed counters
// across every reachable worker (decodable as serve.CacheInfo, so
// dse.Client.CacheStats works against a coordinator) plus the per-worker
// breakdown.
type CacheInfo struct {
	Enabled bool `json:"enabled"`
	memo.Stats
	Workers []WorkerCache `json:"workerCaches,omitempty"`
}

func (c *Coordinator) handleCache(w http.ResponseWriter, r *http.Request) {
	c.mu.Lock()
	type target struct{ id, url string }
	var targets []target
	for _, m := range c.workers {
		targets = append(targets, target{m.id, m.url})
	}
	c.mu.Unlock()
	sort.Slice(targets, func(i, k int) bool { return targets[i].id < targets[k].id })

	out := CacheInfo{}
	out.Policy = "fleet"
	for _, t := range targets {
		info, err := c.workerCache(r.Context(), t.url)
		if err != nil {
			continue
		}
		out.Workers = append(out.Workers, WorkerCache{ID: t.id, CacheInfo: *info})
		if info.Enabled {
			out.Enabled = true
			out.Stats.Add(info.Stats)
		}
	}
	serve.WriteJSON(w, http.StatusOK, out)
}

// workerCache reads one worker's GET /v1/cache.
func (c *Coordinator) workerCache(ctx context.Context, url string) (*serve.CacheInfo, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/v1/cache", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var info serve.CacheInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		return nil, err
	}
	return &info, nil
}

func (c *Coordinator) handleMetrics(w http.ResponseWriter, r *http.Request) {
	c.mu.Lock()
	workers := map[string]int{"active": 0, "draining": 0}
	for _, m := range c.workers {
		workers[memberState(m)]++
	}
	requeues, dispatchErrors := c.requeues, c.dispatchErrors
	c.mu.Unlock()
	states := c.srv.JobStates()

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	fmt.Fprint(w, "# HELP dse_fleet_workers Registered workers by state.\n# TYPE dse_fleet_workers gauge\n")
	for _, s := range []string{"active", "draining"} {
		fmt.Fprintf(w, "dse_fleet_workers{state=%s} %d\n", strconv.Quote(s), workers[s])
	}
	fmt.Fprint(w, "# HELP dse_fleet_jobs Jobs resident in the coordinator's job table by state.\n# TYPE dse_fleet_jobs gauge\n")
	for _, s := range []string{serve.StateQueued, serve.StateRunning, serve.StateDone, serve.StateFailed, serve.StateCanceled} {
		fmt.Fprintf(w, "dse_fleet_jobs{state=%s} %d\n", strconv.Quote(s), states[s])
	}
	fmt.Fprint(w, "# HELP dse_fleet_requeues_total Jobs re-dispatched off dead, draining or broken workers.\n# TYPE dse_fleet_requeues_total counter\n")
	fmt.Fprintf(w, "dse_fleet_requeues_total %d\n", requeues)
	fmt.Fprint(w, "# HELP dse_fleet_dispatch_errors_total Job dispatches that workers refused or failed.\n# TYPE dse_fleet_dispatch_errors_total counter\n")
	fmt.Fprintf(w, "dse_fleet_dispatch_errors_total %d\n", dispatchErrors)
}

// Requeues returns the lifetime re-dispatch count (test and ops hook).
func (c *Coordinator) Requeues() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.requeues
}

// Assignment reports which worker runs, or last ran, job id (empty while
// it waits for one, or when the job is unknown).
func (c *Coordinator) Assignment(id string) string {
	st, _ := c.srv.Status(id)
	return st.Worker
}

// Workers returns the registered worker IDs, sorted (drainers included).
func (c *Coordinator) Workers() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, len(c.workers))
	for id := range c.workers {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}
