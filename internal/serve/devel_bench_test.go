package serve

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// This file measures what one submission costs as the job table fills,
// devel-bench style (see graph/devel_bench_test.go): a stub executor
// that runs no search isolates the handler and the retention bookkeeping
// from the engine. It touches only server fields older than the
// finished-job counter, so the file also runs against a tree in which
// every submission scanned the table, for an A/B:
//
//	go test -run '^$' -bench DevelSubmit -cpu 1 ./internal/serve

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
