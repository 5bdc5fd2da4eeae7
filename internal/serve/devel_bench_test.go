package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/runner"
)

// This file measures the serve path devel-bench style (see
// graph/devel_bench_test.go), through Handler() with no socket.
// BenchmarkDevelSubmit costs one submission as the job table fills: a
// stub executor that runs no search isolates the handler and the
// retention bookkeeping from the engine. BenchmarkDevelHit costs one
// cache-hit job end to end on the local executor. Both use only the
// server's API and fields older than the finished-job counter, so the
// file also runs against older trees, for an A/B:
//
//	go test -run '^$' -bench 'Devel(Submit|Hit)' -cpu 1,2 ./internal/serve

// execFunc adapts a function to the Executor seam.
type execFunc func(ctx context.Context, job Job, start func(string), emit func(RunEvent)) (*JobSummary, error)

func (f execFunc) Execute(ctx context.Context, job Job, start func(string), emit func(RunEvent)) (*JobSummary, error) {
	return f(ctx, job, start, emit)
}

// finishAtOnce starts each job and finishes it without running anything.
var finishAtOnce = execFunc(func(_ context.Context, _ Job, start func(string), _ func(RunEvent)) (*JobSummary, error) {
	start("")
	return &JobSummary{}, nil
})

const develSpec = `{"scenario":"pipeline-chain-tiny","runs":1,"maxSteps":2}`

// develSubmit posts the spec to POST /v1/jobs through h, with no socket.
func develSubmit(b *testing.B, h http.Handler) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", strings.NewReader(develSpec)))
	if rec.Code != http.StatusAccepted {
		b.Fatalf("POST /v1/jobs = %d: %s", rec.Code, rec.Body)
	}
}

// waitIdle waits until every submitted job has finished.
func waitIdle(tb testing.TB, s *Server) {
	tb.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := s.WaitIdle(ctx); err != nil {
		tb.Fatalf("WaitIdle: %v (active=%d)", err, s.ActiveJobs())
	}
}

// BenchmarkDevelSubmit submits jobs to a server holding 0, 1000 or 10000
// finished records. The table is filled under a bound of 1<<30; the bound
// is then lowered to the fill, so each finished benchmark job evicts one
// record and every submission sees the same table.
func BenchmarkDevelSubmit(b *testing.B) {
	for _, resident := range []int{0, 1000, 10000} {
		var s *Server
		var h http.Handler
		b.Run(fmt.Sprintf("resident=%d", resident), func(b *testing.B) {
			if s == nil { // fill once; the testing package calls this once per round
				s = New(Options{MaxFinished: 1 << 30, Logf: func(string, ...interface{}) {}, Executor: finishAtOnce})
				h = s.Handler()
				for i := 0; i < resident; i++ {
					develSubmit(b, h)
				}
				waitIdle(b, s)
				s.mu.Lock()
				s.maxFinished = resident
				s.mu.Unlock()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				develSubmit(b, h)
			}
			b.StopTimer()
			waitIdle(b, s)
		})
	}
}

// develPool is serve-zipf's scenario pool (perfbench/serve.go).
var develPool = []string{
	"pipeline-fft-small", "layered-small", "paper-fig2", "paper-small-device",
	"pipeline-jpeg", "forkjoin-medium", "sdf-ratechange-medium",
}

// develJob posts body to POST /v1/jobs through h, then streams the job to
// its final line, which must report a done job with hits cache hits.
func develJob(b *testing.B, h http.Handler, body string, hits int) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", strings.NewReader(body)))
	var st struct {
		ID string `json:"id"`
	}
	if rec.Code != http.StatusAccepted || json.Unmarshal(rec.Body.Bytes(), &st) != nil {
		b.Fatalf("POST /v1/jobs = %d: %s", rec.Code, rec.Body)
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/jobs/"+st.ID+"/stream", nil))
	out := bytes.TrimSuffix(rec.Body.Bytes(), []byte("\n"))
	final := out[bytes.LastIndexByte(out, '\n')+1:]
	if !bytes.HasPrefix(final, []byte(`{"state":"done"`)) || !bytes.Contains(final, []byte(fmt.Sprintf(`"cacheHits":%d,`, hits))) {
		b.Fatalf("%s: final line %s, want done with %d cache hits", st.ID, final, hits)
	}
}

// BenchmarkDevelHit runs one cache-hit job per op: serve-zipf's request
// (SA, two runs on one worker) over its seven pool scenarios in turn, on
// the local executor, after one warm-up pass has cached every answer.
func BenchmarkDevelHit(b *testing.B) {
	s := New(Options{Cache: runner.NewResultCache(0), Logf: func(string, ...interface{}) {}})
	h := s.Handler()
	specs := make([]string, len(develPool))
	for i, name := range develPool {
		specs[i] = fmt.Sprintf(`{"scenario":%q,"strategy":"sa","runs":2,"seed":1,"workers":1}`, name)
		develJob(b, h, specs[i], 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		develJob(b, h, specs[i%len(specs)], 2)
	}
}
