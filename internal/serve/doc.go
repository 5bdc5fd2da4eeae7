// Package serve turns the exploration library into a long-running
// design-space-exploration service: an HTTP API over the parallel
// multi-run engine with asynchronous job submission, NDJSON progress
// streaming, context-propagated cancellation, and the sharded memoized
// result cache in front of every run — so resubmitting an identical
// (application, architecture, objective, strategy, seed, budget) job is
// answered from memory, bit-identically, in microseconds.
//
// The API surface (see docs/CLI.md for the dsed command wrapping it):
//
//	POST   /v1/jobs              submit a job (scenario name or inline models); 202 + job id
//	GET    /v1/jobs              list jobs
//	GET    /v1/jobs/{id}         job status, and the summary once finished
//	GET    /v1/jobs/{id}/stream  NDJSON: buffered per-run events, then live ones, then the final line
//	DELETE /v1/jobs/{id}         cancel a queued or running job
//	POST   /v1/run               submit a job and stream it in the response, as /stream does;
//	                             disconnecting cancels it
//	GET    /v1/scenarios         the scenario corpus
//	GET    /v1/cache             result-cache counters
//	GET    /v1/metrics           Prometheus text: cache counters and job-table gauges
//	GET    /v1/healthz           liveness
//
// Every job, whichever route submitted it, enters one job table and runs
// on the server's Executor. The local executor runs it on this process's
// runner, at most Options.MaxJobs jobs at a time; the fleet coordinator
// (internal/fleet) supplies one that relays the job to a worker's
// /v1/run stream. Async jobs outlive their submitting connection and are
// cancelled only through DELETE. A POST /v1/run job is tied to its
// request instead: a client that disconnects mid-stream cancels the run
// within one step, and the truncated runs are never cached.
package serve
