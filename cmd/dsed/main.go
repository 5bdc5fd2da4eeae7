// Command dsed is the design-space-exploration job server: it serves
// async exploration jobs over HTTP, streams per-run progress as NDJSON,
// and answers repeated jobs from the sharded memoized result cache —
// resubmitting an identical (scenario|models, strategy, seed, budget)
// job returns bit-identical quality fields without recomputation. With
// -snapshot the cache survives restarts: it is restored on boot and
// saved periodically, and again on SIGTERM/interrupt. Cached results
// never expire by the clock; those of an older release carry another
// runner.ResultEpoch in their keys, so they never hit and age out under
// LRU.
//
// Endpoints (see internal/serve) live under /v1: POST /v1/jobs,
// GET /v1/jobs[/{id}[/stream]], DELETE /v1/jobs/{id}, POST /v1/run
// (submit and stream in one request; disconnecting cancels the job),
// GET /v1/scenarios, GET /v1/cache, GET /v1/metrics (Prometheus text),
// GET /v1/healthz.
//
// Usage:
//
//	dsed                                    # serve on :8080, cache enabled
//	dsed -addr :9090 -max-jobs 4 -cache-size 16384
//	dsed -snapshot /var/lib/dsed/cache.snap -snapshot-interval 5m
//	dsed -smoke                             # self-test: submit fig2-small twice,
//	                                        # assert the resubmission is a cache hit,
//	                                        # then restart from a snapshot and assert
//	                                        # the cache survived
//
// Submit a job with curl:
//
//	curl -s -X POST localhost:8080/v1/jobs -d '{"scenario":"fig2-small","runs":10}'
//	curl -s localhost:8080/v1/jobs/job-000001/stream     # NDJSON progress
//	curl -s -X DELETE localhost:8080/v1/jobs/job-000001  # cancel
//	curl -s localhost:8080/v1/metrics                    # Prometheus scrape
//
// Exit codes: 0 success, 1 serve/smoke failure, 2 flag-usage error.
package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/dse"
	"repro/internal/cli"
	"repro/internal/fleet"
	"repro/internal/runner"
	"repro/internal/serve"
)

// runCoordinator serves the fleet coordinator until SIGTERM/interrupt.
func runCoordinator(addr string, beatTimeout time.Duration) error {
	c := fleet.NewCoordinator(fleet.Options{HeartbeatTimeout: beatTimeout, Logf: log.Printf})
	defer c.Close()
	httpSrv := &http.Server{Addr: addr, Handler: c.Handler()}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		httpSrv.Shutdown(shutdownCtx)
	}()
	log.Printf("coordinating on %s (heartbeat timeout %v)", addr, beatTimeout)
	if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	log.Printf("coordinator shut down")
	return nil
}

// fleetWorkerID derives the worker's stable fleet identity: an explicit
// -worker-id, else hostname:port from the listen address.
func fleetWorkerID(explicit, addr string) string {
	if explicit != "" {
		return explicit
	}
	host, _ := os.Hostname()
	if host == "" {
		host = "dsed"
	}
	_, port, err := net.SplitHostPort(addr)
	if err != nil || port == "" {
		return host
	}
	return host + ":" + port
}

// advertiseURL derives the callback URL workers hand the coordinator.
// Wildcard listen hosts advertise the loopback address — correct for
// single-host fleets (the smoke/test topology); multi-host deployments
// pass -advertise explicitly.
func advertiseURL(explicit, addr string) string {
	if explicit != "" {
		return strings.TrimRight(explicit, "/")
	}
	host, port, err := net.SplitHostPort(addr)
	if err != nil {
		return "http://" + addr
	}
	switch host {
	case "", "0.0.0.0", "::", "[::]":
		host = "127.0.0.1"
	}
	return "http://" + net.JoinHostPort(host, port)
}

func main() { cli.Main("dsed", run) }

// run parses args, then serves (or coordinates) until SIGTERM/interrupt,
// or with -smoke runs the self-test and reports it to stdout.
func run(args []string, stdout io.Writer) error {
	fs := cli.NewFlagSet("dsed")
	var (
		addr      = fs.String("addr", ":8080", "listen address")
		noCache   = fs.Bool("no-cache", false, "disable the memoized result cache")
		cacheSize = fs.Int("cache-size", 8192, "result-cache capacity (entries)")
		snapPath  = fs.String("snapshot", "", "cache snapshot file: restored on boot, saved every -snapshot-interval and on shutdown (empty = no persistence)")
		snapEvery = fs.Duration("snapshot-interval", 5*time.Minute, "how often to save the cache snapshot (requires -snapshot)")
		maxJobs   = fs.Int("max-jobs", 2, "concurrently executing jobs (excess queues)")
		maxDone   = fs.Int("max-finished", 1000, "finished job records retained (oldest evicted beyond this)")
		smoke     = fs.Bool("smoke", false, "run the self-test (cold job, cache-hit resubmit, snapshot restart, /metrics scrape) and exit")

		coordinator = fs.Bool("coordinator", false, "run as a fleet coordinator: route /v1/jobs across registered dsed workers instead of computing locally")
		beatTimeout = fs.Duration("heartbeat-timeout", 5*time.Second, "coordinator: declare a worker dead after this heartbeat silence and re-queue its jobs")
		join        = fs.String("join", "", "worker: register with the fleet coordinator at this base URL (e.g. http://host:9400)")
		advertise   = fs.String("advertise", "", "worker: base URL the coordinator dials back (default derived from -addr on 127.0.0.1)")
		workerID    = fs.String("worker-id", "", "worker: stable fleet identity (default hostname:port)")
		heartbeat   = fs.Duration("heartbeat", 2*time.Second, "worker: heartbeat interval to the coordinator")
		drainFor    = fs.Duration("drain-timeout", 30*time.Second, "worker: on SIGTERM, wait at most this long for in-flight jobs to finish after deregistering")
	)
	if err := cli.Parse(fs, args); err != nil {
		return err
	}

	if *coordinator {
		return runCoordinator(*addr, *beatTimeout)
	}

	var cache *runner.ResultCache
	if !*noCache {
		cache = runner.NewResultCache(*cacheSize)
	}
	srv := serve.New(serve.Options{Cache: cache, MaxJobs: *maxJobs, MaxFinished: *maxDone, Logf: log.Printf})

	if *smoke {
		if err := runSmoke(stdout, srv, *snapPath); err != nil {
			return fmt.Errorf("smoke: %w", err)
		}
		fmt.Fprintln(stdout, "dsed smoke: PASS")
		return nil
	}

	if cache != nil && *snapPath != "" {
		restoreSnapshot(cache, *snapPath)
	}

	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if cache != nil && *snapPath != "" && *snapEvery > 0 {
		go func() {
			tick := time.NewTicker(*snapEvery)
			defer tick.Stop()
			for {
				select {
				case <-tick.C:
					saveSnapshot(cache, *snapPath)
				case <-ctx.Done():
					return
				}
			}
		}()
	}

	// Fleet membership: register with the coordinator and heartbeat until
	// the drain sequence stops the agent.
	var agent *fleet.Agent
	agentCtx, stopAgent := context.WithCancel(context.Background())
	defer stopAgent()
	if *join != "" {
		agent = &fleet.Agent{
			Coordinator: strings.TrimRight(*join, "/"),
			ID:          fleetWorkerID(*workerID, *addr),
			URL:         advertiseURL(*advertise, *addr),
			Interval:    *heartbeat,
			Logf:        log.Printf,
		}
		go agent.Run(agentCtx)
	}

	go func() {
		<-ctx.Done()
		if agent != nil {
			// Graceful drain: leave the ring first (new jobs route to the
			// survivors), refuse local submissions, finish what is in
			// flight — the coordinator's relayed /v1/run streams included —
			// and only then stop heartbeating and close the listener.
			log.Printf("SIGTERM: draining (deregister, finish in-flight, timeout %v)", *drainFor)
			drainCtx, cancel := context.WithTimeout(context.Background(), *drainFor)
			srv.Drain()
			if err := agent.Deregister(drainCtx); err != nil {
				log.Printf("warning: deregister: %v", err)
			}
			if err := srv.WaitIdle(drainCtx); err != nil {
				log.Printf("warning: drain timeout with %d jobs in flight", srv.ActiveJobs())
			}
			cancel()
			stopAgent()
		}
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		httpSrv.Shutdown(shutdownCtx)
	}()
	if agent != nil {
		log.Printf("serving on %s (cache %v, max-jobs %d, fleet %s as %s)",
			*addr, !*noCache, *maxJobs, *join, fleetWorkerID(*workerID, *addr))
	} else {
		log.Printf("serving on %s (cache %v, max-jobs %d)", *addr, !*noCache, *maxJobs)
	}
	if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	if cache != nil && *snapPath != "" {
		// Final save after the listener has drained: the snapshot includes
		// every job that completed before shutdown.
		saveSnapshot(cache, *snapPath)
	}
	log.Printf("shut down")
	return nil
}

// restoreSnapshot warm-starts the cache from path. Every failure mode —
// missing file, truncation, corruption, version skew — degrades to a
// cold cache with a logged warning; a bad snapshot must never prevent
// the server from starting.
func restoreSnapshot(cache *runner.ResultCache, path string) {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		log.Printf("snapshot %s: not found, starting cold", path)
		return
	}
	if err != nil {
		log.Printf("warning: snapshot %s unreadable (%v), starting cold", path, err)
		return
	}
	defer f.Close()
	n, err := cache.Restore(f)
	if err != nil {
		log.Printf("warning: snapshot %s rejected (%v), starting cold", path, err)
		return
	}
	log.Printf("snapshot %s: restored %d cached results", path, n)
}

// saveSnapshot writes the cache to path atomically (tmp file + rename),
// so a crash mid-save leaves the previous snapshot intact.
func saveSnapshot(cache *runner.ResultCache, path string) {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		log.Printf("warning: snapshot save: %v", err)
		return
	}
	if err := cache.Snapshot(f); err != nil {
		f.Close()
		os.Remove(tmp)
		log.Printf("warning: snapshot save: %v", err)
		return
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		log.Printf("warning: snapshot save: %v", err)
		return
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		log.Printf("warning: snapshot save: %v", err)
		return
	}
	log.Printf("snapshot %s: saved %d cached results", path, cache.Len())
}

// runSmoke is the CI self-test. Three acts:
//
//  1. Cold job on a fresh server, identical resubmission answered from
//     cache with bit-identical quality fields.
//  2. Snapshot the cache, boot a second server restored from the file
//     (a simulated kill/restart), and assert the resubmitted job is a
//     pure cache hit with the same summary.
//  3. Scrape /v1/metrics on the restarted server and assert non-zero
//     per-shard hit counters.
//
// snapPath selects the snapshot file; empty uses a temp file. The report
// goes to stdout.
func runSmoke(stdout io.Writer, srv *serve.Server, snapPath string) error {
	ctx, cancel := context.WithTimeout(context.Background(), 240*time.Second)
	defer cancel()
	spec := dse.JobSpec{Scenario: "fig2-small", Strategy: "sa", Runs: 4, MaxSteps: 10}

	// Act 1: cold compute, warm resubmit.
	base, closeA, err := serveLoopback(srv)
	if err != nil {
		return err
	}
	defer closeA()
	client := dse.NewClient(base)
	if err := client.Health(ctx); err != nil {
		return err
	}
	cold, coldWall, err := submitAndWait(ctx, client, spec)
	if err != nil {
		return fmt.Errorf("cold job: %w", err)
	}
	if cold.Summary.CacheHits != 0 {
		return fmt.Errorf("cold job reported %d cache hits", cold.Summary.CacheHits)
	}
	warm, warmWall, err := submitAndWait(ctx, client, spec)
	if err != nil {
		return fmt.Errorf("warm job: %w", err)
	}
	if warm.Summary.CacheHits != spec.Runs {
		return fmt.Errorf("warm job hit %d/%d runs", warm.Summary.CacheHits, spec.Runs)
	}
	if err := summariesMatch(cold.Summary, warm.Summary); err != nil {
		return fmt.Errorf("warm job diverged: %w", err)
	}
	fmt.Fprintf(stdout, "fig2-small × %d runs: cold %v (best cost %.4f), warm %v from cache (%d hits)\n",
		spec.Runs, coldWall.Round(time.Millisecond), cold.Summary.BestCost,
		warmWall.Round(time.Millisecond), warm.Summary.CacheHits)

	// Act 2: snapshot, "kill", restart from the file, resubmit.
	if snapPath == "" {
		f, err := os.CreateTemp("", "dsed-smoke-*.snap")
		if err != nil {
			return err
		}
		snapPath = f.Name()
		f.Close()
		defer os.Remove(snapPath)
	}
	saveSnapshot(srv.Cache(), snapPath)
	closeA()

	cache2 := runner.NewResultCache(8192)
	restoreSnapshot(cache2, snapPath)
	if cache2.Len() == 0 {
		return fmt.Errorf("restart: snapshot %s restored 0 entries", snapPath)
	}
	srv2 := serve.New(serve.Options{Cache: cache2, MaxJobs: 2, Logf: log.Printf})
	base2, closeB, err := serveLoopback(srv2)
	if err != nil {
		return err
	}
	defer closeB()
	client2 := dse.NewClient(base2)
	restarted, restartWall, err := submitAndWait(ctx, client2, spec)
	if err != nil {
		return fmt.Errorf("post-restart job: %w", err)
	}
	if restarted.Summary.CacheHits != spec.Runs {
		return fmt.Errorf("post-restart job hit %d/%d runs — snapshot did not survive the restart", restarted.Summary.CacheHits, spec.Runs)
	}
	if err := summariesMatch(cold.Summary, restarted.Summary); err != nil {
		return fmt.Errorf("post-restart job diverged from the original: %w", err)
	}
	fmt.Fprintf(stdout, "restart from %s: %v, %d/%d runs from the restored cache\n",
		snapPath, restartWall.Round(time.Millisecond), restarted.Summary.CacheHits, spec.Runs)

	// Act 3: the metrics endpoint reports the hits.
	body, err := scrape(ctx, base2+"/v1/metrics")
	if err != nil {
		return fmt.Errorf("metrics scrape: %w", err)
	}
	if !strings.Contains(body, `dse_cache_hits_total{shard=`) {
		return fmt.Errorf("metrics scrape missing per-shard hit counters:\n%s", body)
	}
	hits := cache2.Stats().Hits
	if hits == 0 {
		return fmt.Errorf("restored cache reports zero hits after a fully-cached job")
	}
	fmt.Fprintf(stdout, "metrics: %d cache hits across %d shards\n", hits, len(cache2.Stats().Shards))
	return nil
}

func serveLoopback(srv *serve.Server) (base string, shutdown func(), err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	go httpSrv.Serve(ln)
	return "http://" + ln.Addr().String(), func() { httpSrv.Close() }, nil
}

func submitAndWait(ctx context.Context, client *dse.Client, spec dse.JobSpec) (*dse.JobStatus, time.Duration, error) {
	start := time.Now()
	st, err := client.SubmitJob(ctx, spec)
	if err != nil {
		return nil, 0, err
	}
	st, err = client.WaitJob(ctx, st.ID, 20*time.Millisecond)
	if err != nil {
		return nil, 0, err
	}
	if st.State != dse.JobDone {
		return nil, 0, fmt.Errorf("job %s finished %s: %s", st.ID, st.State, st.Error)
	}
	return st, time.Since(start), nil
}

// summariesMatch compares the quality fields the acceptance criteria
// pin as bit-identical across cache hits and restarts.
func summariesMatch(a, b *dse.JobSummary) error {
	if a.BestCost != b.BestCost || a.BestMakespanMS != b.BestMakespanMS || a.FrontSize != b.FrontSize {
		return fmt.Errorf("cold %+v vs %+v", a, b)
	}
	return nil
}

func scrape(ctx context.Context, url string) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return "", err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("GET %s: %d: %s", url, resp.StatusCode, b)
	}
	return string(b), nil
}
