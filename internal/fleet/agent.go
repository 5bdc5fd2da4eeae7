package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"time"
)

// Agent is the worker-side fleet membership loop: register with the
// coordinator, heartbeat on an interval, re-register if the coordinator
// forgets us (restart), and deregister to begin a graceful drain.
type Agent struct {
	// Coordinator is the coordinator's base URL (e.g. "http://host:9400").
	Coordinator string
	// ID is the worker's stable identity on the ring.
	ID string
	// URL is the base URL the coordinator dials back to relay jobs.
	URL string
	// Interval is the heartbeat cadence (non-positive selects 2s).
	Interval time.Duration
	// Logf receives membership events (nil = log.Printf).
	Logf func(format string, args ...interface{})

	draining bool // set by Deregister; stops re-registration on 404
}

func (a *Agent) logf(format string, args ...interface{}) {
	if a.Logf != nil {
		a.Logf(format, args...)
		return
	}
	log.Printf(format, args...)
}

// agentClient talks to the coordinator.
var agentClient = &http.Client{Timeout: 10 * time.Second}

// post sends a JoinRequest to the coordinator path and returns the HTTP
// status (0 on transport failure).
func (a *Agent) post(ctx context.Context, path string, withURL bool) (int, error) {
	req := JoinRequest{ID: a.ID}
	if withURL {
		req.URL = a.URL
	}
	b, err := json.Marshal(&req)
	if err != nil {
		return 0, err
	}
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, a.Coordinator+path, bytes.NewReader(b))
	if err != nil {
		return 0, err
	}
	hr.Header.Set("Content-Type", "application/json")
	resp, err := agentClient.Do(hr)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
	if resp.StatusCode >= 400 {
		return resp.StatusCode, fmt.Errorf("fleet: coordinator answered %s to %s", resp.Status, path)
	}
	return resp.StatusCode, nil
}

// Register announces the worker once (retried by Run on failure).
func (a *Agent) Register(ctx context.Context) error {
	_, err := a.post(ctx, "/v1/register", true)
	return err
}

// Deregister starts a graceful drain: the coordinator takes the worker
// off the ring immediately (new jobs route elsewhere) while its
// in-flight jobs finish in place. Subsequent heartbeats keep the
// draining worker visibly alive; they never re-register it.
func (a *Agent) Deregister(ctx context.Context) error {
	a.draining = true
	_, err := a.post(ctx, "/v1/deregister", false)
	return err
}

// Run drives the membership loop until ctx is cancelled: register
// (retrying on failure), then heartbeat every Interval. A 404 heartbeat
// (coordinator restarted or declared us dead) triggers re-registration
// unless the agent is draining. Run never returns an error — a worker
// keeps serving local traffic even when the coordinator is away.
func (a *Agent) Run(ctx context.Context) {
	interval := a.Interval
	if interval <= 0 {
		interval = 2 * time.Second
	}
	registered := false
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		if !registered && !a.draining {
			if err := a.Register(ctx); err != nil {
				if ctx.Err() != nil {
					return
				}
				a.logf("fleet: register with %s failed (%v), retrying", a.Coordinator, err)
			} else {
				registered = true
				a.logf("fleet: registered with %s as %s (%s)", a.Coordinator, a.ID, a.URL)
			}
		} else {
			status, err := a.post(ctx, "/v1/heartbeat", true)
			switch {
			case err == nil:
			case ctx.Err() != nil:
				return
			case status == http.StatusNotFound && !a.draining:
				a.logf("fleet: coordinator forgot %s — re-registering", a.ID)
				registered = false
			default:
				a.logf("fleet: heartbeat failed: %v", err)
			}
		}
		select {
		case <-tick.C:
		case <-ctx.Done():
			return
		}
	}
}
