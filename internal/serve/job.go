package serve

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/objective"
	"repro/internal/runner"
	"repro/internal/scenario"
	"repro/internal/search"
)

// JobSpec describes one exploration job: either a named scenario from the
// corpus or an inline (application, architecture) pair, plus the strategy
// and budget knobs. The zero values defer to the scenario's budget (or
// the engine defaults for inline models).
type JobSpec struct {
	// Scenario names a corpus entry ("fig2-small", "layered-160", ...).
	// Mutually exclusive with App/Arch.
	Scenario string `json:"scenario,omitempty"`
	// App and Arch are inline models (the dsexplore JSON schema). Both
	// must be present when Scenario is empty.
	App  *model.App  `json:"app,omitempty"`
	Arch *model.Arch `json:"arch,omitempty"`
	// Strategy is the search strategy name; empty selects "sa".
	Strategy string `json:"strategy,omitempty"`
	// Runs is the number of independent runs (0 = the scenario's budget,
	// or 1 for inline models).
	Runs int `json:"runs,omitempty"`
	// Seed is the base of the per-run seed stream.
	Seed int64 `json:"seed,omitempty"`
	// MaxSteps caps driver steps per run (0 = the scenario's budget, or
	// run to exhaustion for inline models).
	MaxSteps int `json:"maxSteps,omitempty"`
	// Workers bounds the per-job worker pool (0 = NumCPU).
	Workers int `json:"workers,omitempty"`
	// DeadlineMS is the real-time constraint for inline models in
	// milliseconds (ignored for scenarios, which carry their own).
	DeadlineMS float64 `json:"deadlineMS,omitempty"`
	// Overrides are the result-shaping search knobs (saIters, quality,
	// wArea, wReconf, batch, earlyStopEpsilon, earlyStopWindow,
	// schedSlice, transfer), flattened into the spec's JSON and applied
	// exactly as the CLIs apply their flags. All of them reach the cache
	// key through the strategy fingerprint (transfer as its donor's key).
	search.Overrides
}

// resolved is a spec translated into runnable form: the job's strategy
// factory plus its run count and step budget.
type resolved struct {
	factory  *search.Factory
	runs     int
	maxSteps int
	transfer bool
}

// frontMetrics is the area/makespan trade-off every job archives.
var frontMetrics = []objective.Metric{objective.HWArea, objective.Makespan}

// resolve validates the spec and builds the job's strategy factory. A
// scenario job's factory runs on the scenario's process-wide prepared
// instance, so the job instantiates, prepares and hashes nothing; an
// inline job prepares its own models.
func resolve(spec *JobSpec) (*resolved, error) {
	r := &resolved{runs: spec.Runs, maxSteps: spec.MaxSteps, transfer: spec.Transfer}
	var (
		prep *core.Prepared
		cfg  search.Config
		err  error
	)
	switch {
	case spec.Scenario != "" && (spec.App != nil || spec.Arch != nil):
		return nil, fmt.Errorf("serve: a job names a scenario or carries inline models, not both")
	case spec.Scenario != "":
		s, ok := scenario.Lookup(spec.Scenario)
		if !ok {
			return nil, fmt.Errorf("serve: unknown scenario %q (have %v)", spec.Scenario, scenario.Names())
		}
		if prep, err = s.Prepared(); err != nil {
			return nil, err
		}
		cfg = s.SearchConfig()
		if r.runs <= 0 {
			r.runs = s.Budget.Runs
		}
		if r.maxSteps <= 0 {
			r.maxSteps = s.Budget.MaxSteps
		}
	case spec.App != nil && spec.Arch != nil:
		if n := len(spec.App.Tasks); n > maxInlineTasks {
			return nil, fmt.Errorf("serve: inline application has %d tasks, above the limit of %d", n, maxInlineTasks)
		}
		if a := spec.Arch; max(len(a.Processors), len(a.RCs), len(a.ASICs)) > maxInlineResources {
			return nil, fmt.Errorf("serve: inline architecture has more than %d resources of one kind", maxInlineResources)
		}
		if err := spec.App.Validate(); err != nil {
			return nil, fmt.Errorf("serve: inline application: %w", err)
		}
		if err := spec.Arch.Validate(); err != nil {
			return nil, fmt.Errorf("serve: inline architecture: %w", err)
		}
		if prep, err = core.Prepare(spec.App, spec.Arch); err != nil {
			return nil, err
		}
		cfg = search.DefaultConfig()
		cfg.SA.Deadline = model.FromMillis(spec.DeadlineMS)
	default:
		return nil, fmt.Errorf("serve: a job needs a scenario name or both inline models")
	}
	if r.runs <= 0 {
		r.runs = 1
	}
	if err := spec.Apply(&cfg); err != nil {
		return nil, err
	}
	cfg.FrontMetrics = frontMetrics
	strategy := spec.Strategy
	if strategy == "" {
		strategy = "sa"
	}
	if r.factory, err = search.NewFactoryOn(strategy, prep, cfg); err != nil {
		return nil, err
	}
	return r, nil
}

// RunEvent is one completed run as streamed to clients (NDJSON lines).
type RunEvent struct {
	Run         int     `json:"run"`
	Seed        int64   `json:"seed"`
	Cost        float64 `json:"cost"`
	MakespanMS  float64 `json:"makespanMS"`
	Contexts    int     `json:"contexts"`
	Evaluations int     `json:"evaluations"`
	MetDeadline bool    `json:"metDeadline"`
	Cached      bool    `json:"cached,omitempty"`
}

// JobSummary is the aggregate of a finished (or cancelled) job.
type JobSummary struct {
	Requested      int     `json:"requested"`
	Completed      int     `json:"completed"`
	BestCost       float64 `json:"bestCost"`
	BestRun        int     `json:"bestRun"`
	BestSeed       int64   `json:"bestSeed"`
	BestMakespanMS float64 `json:"bestMakespanMS"`
	MeanMakespanMS float64 `json:"meanMakespanMS"`
	FrontSize      int     `json:"frontSize"`
	DeadlineMet    int     `json:"deadlineMet"`
	Evaluations    int     `json:"evaluations"`
	CacheHits      int     `json:"cacheHits"`
	WallMS         float64 `json:"wallMS"`
	// Sched is the composite runs' scheduling policy; TransferKey,
	// TransferCost and TransferRuns report the warm-start donor when the
	// job was transfer-seeded. All omitted otherwise.
	Sched        string  `json:"sched,omitempty"`
	TransferKey  string  `json:"transferKey,omitempty"`
	TransferCost float64 `json:"transferCost,omitempty"`
	TransferRuns int     `json:"transferRuns,omitempty"`
}

// summarize folds a run aggregate into the wire summary.
func summarize(agg *runner.Aggregate, wall time.Duration) *JobSummary {
	s := &JobSummary{
		Requested:      agg.Requested,
		Completed:      agg.Completed,
		BestRun:        agg.BestRun,
		BestSeed:       agg.BestSeed,
		BestMakespanMS: agg.BestEval.Makespan.Millis(),
		MeanMakespanMS: agg.MakespanMS.Mean(),
		DeadlineMet:    agg.DeadlineMet,
		Evaluations:    agg.Evaluations,
		CacheHits:      agg.CacheHits,
		WallMS:         float64(wall.Microseconds()) / 1e3,
		Sched:          agg.SchedPolicy,
		TransferKey:    agg.TransferKey,
		TransferCost:   agg.TransferCost,
		TransferRuns:   agg.TransferRuns,
	}
	if agg.BestHasCost {
		s.BestCost = agg.BestCost
	}
	if agg.Front != nil {
		s.FrontSize = agg.Front.Len()
	}
	return s
}

// Job states.
const (
	StateQueued   = "queued"
	StateRunning  = "running"
	StateDone     = "done"
	StateFailed   = "failed"
	StateCanceled = "canceled"
)

// JobStatus is the wire representation of a job. Worker names the fleet
// worker that runs it, on a coordinator only.
type JobStatus struct {
	ID        string      `json:"id"`
	State     string      `json:"state"`
	Spec      JobSpec     `json:"spec"`
	Error     string      `json:"error,omitempty"`
	Summary   *JobSummary `json:"summary,omitempty"`
	Events    int         `json:"events"`
	Worker    string      `json:"worker,omitempty"`
	Submitted time.Time   `json:"submitted"`
	Started   *time.Time  `json:"started,omitempty"`
	Finished  *time.Time  `json:"finished,omitempty"`
}

// terminal reports whether the state is final.
func terminal(state string) bool {
	return state == StateDone || state == StateFailed || state == StateCanceled
}

// job is the server-side record: status + event buffer + subscriber set.
type job struct {
	mu     sync.Mutex
	status JobStatus
	events []RunEvent
	subs   map[chan struct{}]bool
	cancel context.CancelFunc
	// finished is set, under Server.mu, once the server has counted the
	// job among its finished records.
	finished bool
}

// snapshot returns a copy of the status under the lock.
func (j *job) snapshot() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := j.status
	st.Events = len(j.events)
	return st
}

// state returns the job's state under the lock.
func (j *job) state() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status.State
}

// notify wakes every subscriber (non-blocking: each channel has capacity
// one, a pending wakeup is as good as two).
func (j *job) notify() {
	for ch := range j.subs {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
}

// subscribe registers a wakeup channel; the returned func removes it.
func (j *job) subscribe() (chan struct{}, func()) {
	ch := make(chan struct{}, 1)
	j.mu.Lock()
	if j.subs == nil {
		j.subs = map[chan struct{}]bool{}
	}
	j.subs[ch] = true
	j.mu.Unlock()
	return ch, func() {
		j.mu.Lock()
		delete(j.subs, ch)
		j.mu.Unlock()
	}
}

// addEvent appends a run event and wakes the streamers.
func (j *job) addEvent(e RunEvent) {
	j.mu.Lock()
	j.events = append(j.events, e)
	j.notify()
	j.mu.Unlock()
}

// eventsFrom copies the buffered events starting at index from.
func (j *job) eventsFrom(from int) ([]RunEvent, string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if from >= len(j.events) {
		return nil, j.status.State
	}
	out := append([]RunEvent(nil), j.events[from:]...)
	return out, j.status.State
}

// setState transitions the job, stamping timestamps and waking streamers.
func (j *job) setState(state string, now time.Time) {
	j.mu.Lock()
	j.status.State = state
	switch state {
	case StateRunning:
		j.status.Started = &now
	case StateDone, StateFailed, StateCanceled:
		j.status.Finished = &now
	}
	j.notify()
	j.mu.Unlock()
}

// finish records the job's outcome, then moves it to its terminal state,
// so a reader that sees the state also sees the summary.
func (j *job) finish(state string, summary *JobSummary, errMsg string) {
	j.mu.Lock()
	j.status.Summary, j.status.Error = summary, errMsg
	j.mu.Unlock()
	j.setState(state, time.Now().UTC())
}

// eventOf projects one completed run onto the wire event.
func eventOf(r runner.RunResult) RunEvent {
	return RunEvent{
		Run:         r.Run,
		Seed:        r.Seed,
		Cost:        r.Outcome.Cost,
		MakespanMS:  r.Outcome.Eval.Makespan.Millis(),
		Contexts:    r.Outcome.Eval.Contexts,
		Evaluations: r.Outcome.Evaluations,
		MetDeadline: r.Outcome.MetDeadline,
		Cached:      r.Outcome.FromCache,
	}
}
