package cluster

import (
	"flag"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

var updateMetricsGolden = flag.Bool("update-metrics-golden", false,
	"rewrite testdata/metrics.golden from the current router /metrics exposition")

// steppedClock is a deterministic router clock: every call advances it
// by the current step, so a sequential request's request and decision
// durations are fixed multiples of the step the test set for it.
type steppedClock struct {
	mu   sync.Mutex
	now  time.Time
	step time.Duration
}

func (c *steppedClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(c.step)
	return c.now
}

func (c *steppedClock) setStep(d time.Duration) {
	c.mu.Lock()
	c.step = d
	c.mu.Unlock()
}

// TestRouterMetricsGolden pins the router's full /metrics body byte
// for byte after a fixed request sequence under a stepped clock: a
// ring decision, a learned affinity decision, a relayed error status,
// a one-group scatter batch, the unmatched route, and histogram
// observations in low, middle and +Inf buckets. Replica names are set
// in-package so no httptest port reaches the body.
// `go test -run RouterMetricsGolden -update-metrics-golden ./internal/cluster`
// regenerates it after an intentional exposition change.
func TestRouterMetricsGolden(t *testing.T) {
	tc := startCluster(t, 2, nil)
	for i, rep := range tc.registry.Replicas() {
		rep.Name = fmt.Sprintf("replica-%d", i)
	}
	clock := &steppedClock{now: time.Unix(1_700_000_000, 0)}
	rt := NewRouter(tc.registry, RouterConfig{Clock: clock.Now})

	selectBody := `{"dataset":"hotels","k":5,"seed":7,"sample_size":120}`
	steps := []struct {
		method, target, body string
		step                 time.Duration
		want                 int
	}{
		{"POST", "/v1/select", selectBody, time.Millisecond, 200},
		{"POST", "/v1/select", selectBody, 50 * time.Microsecond, 200},
		{"POST", "/v1/select", `{"dataset":"missing","k":3}`, 2 * time.Microsecond, 404},
		{"POST", "/v2/select", `{"queries":[{"dataset":"cabins","k":2,"seed":3,"sample_size":120},{"dataset":"cabins","k":4,"seed":3,"sample_size":120}]}`, 400 * time.Millisecond, 200},
		{"GET", "/v1/datasets", "", 4 * time.Second, 200},
		{"GET", "/nope", "", 30 * time.Millisecond, 404},
		{"GET", "/healthz", "", 5 * time.Millisecond, 200},
	}
	for _, s := range steps {
		clock.setStep(s.step)
		rec := httptest.NewRecorder()
		rt.ServeHTTP(rec, httptest.NewRequest(s.method, s.target, strings.NewReader(s.body)))
		if rec.Code != s.want {
			t.Fatalf("%s %s = %d, want %d: %s", s.method, s.target, rec.Code, s.want, rec.Body)
		}
	}
	rec := httptest.NewRecorder()
	rt.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Fatalf("/metrics content type %q", ct)
	}
	got := rec.Body.String()

	path := filepath.Join("testdata", "metrics.golden")
	if *updateMetricsGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update-metrics-golden to generate)", err)
	}
	if got != string(want) {
		t.Fatalf("router /metrics drifted from golden:\n-- got --\n%s\n-- want --\n%s", got, want)
	}
}
