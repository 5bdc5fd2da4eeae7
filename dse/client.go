package dse

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"repro/internal/fleet"
	"repro/internal/search"
	"repro/internal/serve"
)

// Service wire types (see internal/serve for field documentation).
type (
	// JobSpec describes one exploration job submitted to a dsed server:
	// a named scenario or inline App/Arch models, plus strategy/budget.
	JobSpec = serve.JobSpec
	// JobOverrides are the search knobs a JobSpec embeds, e.g.
	// JobSpec{Scenario: "fig2-small", Overrides: JobOverrides{Batch: 8}}.
	JobOverrides = search.Overrides
	// JobStatus is a job's server-side state.
	JobStatus = serve.JobStatus
	// JobSummary is the aggregate of a finished job.
	JobSummary = serve.JobSummary
	// JobEvent is one completed run streamed while a job executes.
	JobEvent = serve.RunEvent
)

// Job states reported in JobStatus.State.
const (
	JobQueued   = serve.StateQueued
	JobRunning  = serve.StateRunning
	JobDone     = serve.StateDone
	JobFailed   = serve.StateFailed
	JobCanceled = serve.StateCanceled
)

// Client talks to a dsed server or a fleet coordinator. The zero value
// is not usable; construct with NewClient.
type Client struct {
	base string
	http *http.Client
}

// apiPrefix is the versioned path prefix the client speaks: the server
// mounts every endpoint under /v1 only.
const apiPrefix = "/v1"

// The drain-aware retry policy: a request refused with 503 is retried up
// to clientRetries times, after clientRetryWait doubled per attempt. A
// fleet refuses with 503 while a worker drains or the ring is momentarily
// empty mid-rebalance; retrying rides out the rebalance so clients observe
// zero failures.
const (
	clientRetries   = 3
	clientRetryWait = 100 * time.Millisecond
)

// NewClient creates a client for the server at base (e.g.
// "http://localhost:8080") with the drain-aware retry policy above.
// Requests carry no overall timeout — job streams are long-lived — so
// bound them with the caller's context.
func NewClient(base string) *Client {
	return &Client{base: strings.TrimRight(base, "/") + apiPrefix, http: &http.Client{}}
}

// backoff sleeps the attempt's retry wait, honoring ctx.
func (c *Client) backoff(ctx context.Context, attempt int) error {
	t := time.NewTimer(clientRetryWait << attempt)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// do issues a request and decodes the JSON response into out (unless the
// status is an error, which is surfaced with the server's message). A
// 503 — a draining worker or a coordinator amid a rebalance — is retried
// with exponential backoff up to the client's retry budget.
func (c *Client) do(ctx context.Context, method, path string, body, out interface{}) error {
	var payload []byte
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return err
		}
		payload = b
	}
	for attempt := 0; ; attempt++ {
		var rd io.Reader
		if payload != nil {
			rd = bytes.NewReader(payload)
		}
		req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
		if err != nil {
			return err
		}
		if payload != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		resp, err := c.http.Do(req)
		if err != nil {
			return err
		}
		if resp.StatusCode == http.StatusServiceUnavailable && attempt < clientRetries {
			io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
			resp.Body.Close()
			if err := c.backoff(ctx, attempt); err != nil {
				return err
			}
			continue
		}
		defer resp.Body.Close()
		if resp.StatusCode >= 400 {
			return decodeServerError(resp)
		}
		if out == nil {
			return nil
		}
		return json.NewDecoder(resp.Body).Decode(out)
	}
}

// decodeServerError parses the /v1 error envelope
// {"error":{"code":...,"message":...}}, falling back to the legacy
// {"error":"string"} shape so the client still reports useful messages
// against an old server.
func decodeServerError(resp *http.Response) error {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	var env struct {
		Error struct {
			Code    string `json:"code"`
			Message string `json:"message"`
		} `json:"error"`
	}
	if json.Unmarshal(body, &env) == nil && env.Error.Message != "" {
		return fmt.Errorf("dse: server: %s (%s)", env.Error.Message, env.Error.Code)
	}
	var legacy struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(body, &legacy) == nil && legacy.Error != "" {
		return fmt.Errorf("dse: server: %s", legacy.Error)
	}
	return fmt.Errorf("dse: server returned %s", resp.Status)
}

// Health probes the server.
func (c *Client) Health(ctx context.Context) error {
	return c.do(ctx, http.MethodGet, "/healthz", nil, nil)
}

// SubmitJob submits an asynchronous job and returns its queued status.
func (c *Client) SubmitJob(ctx context.Context, spec JobSpec) (*JobStatus, error) {
	var st JobStatus
	if err := c.do(ctx, http.MethodPost, "/jobs", &spec, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// Job fetches a job's status.
func (c *Client) Job(ctx context.Context, id string) (*JobStatus, error) {
	var st JobStatus
	if err := c.do(ctx, http.MethodGet, "/jobs/"+id, nil, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// Jobs lists every job the server knows.
func (c *Client) Jobs(ctx context.Context) ([]JobStatus, error) {
	var out []JobStatus
	if err := c.do(ctx, http.MethodGet, "/jobs", nil, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// CancelJob requests cancellation of a queued or running job.
func (c *Client) CancelJob(ctx context.Context, id string) error {
	return c.do(ctx, http.MethodDelete, "/jobs/"+id, nil, nil)
}

// CacheInfo mirrors the server's GET /v1/cache response: whether the
// result cache is enabled plus its statistics (counters, resident
// entries, policy, capacity).
type CacheInfo = serve.CacheInfo

// CacheStats fetches the server's cache statistics.
func (c *Client) CacheStats(ctx context.Context) (*CacheInfo, error) {
	var info CacheInfo
	if err := c.do(ctx, http.MethodGet, "/cache", nil, &info); err != nil {
		return nil, err
	}
	return &info, nil
}

// WorkerInfo is one fleet member as reported by a coordinator's
// GET /v1/workers (see internal/fleet).
type WorkerInfo = fleet.WorkerInfo

// Workers lists the fleet members behind a coordinator. Against a plain
// dsed worker the endpoint does not exist and an error is returned.
func (c *Client) Workers(ctx context.Context) ([]WorkerInfo, error) {
	var out []WorkerInfo
	if err := c.do(ctx, http.MethodGet, "/workers", nil, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// WaitJob polls until the job reaches a terminal state (done, failed,
// canceled) or ctx expires.
func (c *Client) WaitJob(ctx context.Context, id string, poll time.Duration) (*JobStatus, error) {
	if poll <= 0 {
		poll = 50 * time.Millisecond
	}
	t := time.NewTicker(poll)
	defer t.Stop()
	for {
		st, err := c.Job(ctx, id)
		if err != nil {
			return nil, err
		}
		switch st.State {
		case JobDone, JobFailed, JobCanceled:
			return st, nil
		}
		select {
		case <-t.C:
		case <-ctx.Done():
			return st, ctx.Err()
		}
	}
}

// finalLine is the closing NDJSON record of a job stream.
type finalLine struct {
	State   string      `json:"state"`
	Error   string      `json:"error"`
	Summary *JobSummary `json:"summary"`
}

// RunJob executes a job synchronously on the server (POST /run): onEvent
// (optional) receives each completed run as it streams back, and the
// final summary is returned. Cancelling ctx closes the connection, which
// cancels the server-side computation. This is the interactive path
// dsexplore -server uses; for fire-and-forget submission use SubmitJob.
func (c *Client) RunJob(ctx context.Context, spec JobSpec, onEvent func(JobEvent)) (*JobSummary, error) {
	b, err := json.Marshal(&spec)
	if err != nil {
		return nil, err
	}
	var resp *http.Response
	for attempt := 0; ; attempt++ {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/run", bytes.NewReader(b))
		if err != nil {
			return nil, err
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err = c.http.Do(req)
		if err != nil {
			return nil, err
		}
		// A 503 precedes the stream: the worker is draining. Retry like do.
		if resp.StatusCode == http.StatusServiceUnavailable && attempt < clientRetries {
			io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
			resp.Body.Close()
			if err := c.backoff(ctx, attempt); err != nil {
				return nil, err
			}
			continue
		}
		break
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 400 {
		return nil, decodeServerError(resp)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64*1024), 16*1024*1024)
	var last finalLine
	seenFinal := false
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		// Final lines carry "state"; event lines carry "run".
		var probe struct {
			State *string `json:"state"`
		}
		if json.Unmarshal(line, &probe) == nil && probe.State != nil {
			if err := json.Unmarshal(line, &last); err != nil {
				return nil, fmt.Errorf("dse: decoding stream summary: %w", err)
			}
			seenFinal = true
			continue
		}
		var ev JobEvent
		if err := json.Unmarshal(line, &ev); err != nil {
			return nil, fmt.Errorf("dse: decoding stream event: %w", err)
		}
		if onEvent != nil {
			onEvent(ev)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if !seenFinal {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		return nil, fmt.Errorf("dse: job stream ended without a summary")
	}
	switch last.State {
	case JobDone:
		return last.Summary, nil
	case JobCanceled:
		return last.Summary, context.Canceled
	default:
		return last.Summary, fmt.Errorf("dse: job failed: %s", last.Error)
	}
}
