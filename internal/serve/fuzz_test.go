package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/apps"
)

// FuzzDecodeSpec hardens the job-spec path every submission takes: no
// request body may panic DecodeSpec or resolve, which validates the spec,
// prepares its models (or takes its scenario's shared instance) and builds
// its strategy factory. Whatever a
// client posts is a runnable job or an error. Run with
//
//	go test -fuzz=FuzzDecodeSpec ./internal/serve
func FuzzDecodeSpec(f *testing.F) {
	mcfg := apps.DefaultMotionConfig()
	inline, err := json.Marshal(JobSpec{App: apps.MotionDetection(mcfg), Arch: apps.MotionArch(2000, mcfg), DeadlineMS: 40})
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte(`{"scenario":"fig2-small","strategy":"bandit","runs":2,"batch":4,"schedSlice":8}`))
	f.Add(inline)
	f.Add(inline[:len(inline)/2])
	f.Fuzz(func(t *testing.T, body []byte) {
		req := httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body))
		spec, err := DecodeSpec(httptest.NewRecorder(), req)
		if err != nil {
			return
		}
		resolve(spec) //nolint:errcheck // only a panic fails
	})
}
