package serve

import (
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	fam "github.com/regretlab/fam"
	"github.com/regretlab/fam/internal/prom"
)

// scrapeMetrics fetches and parses GET /metrics.
func scrapeMetrics(t *testing.T, baseURL string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/metrics content type %q", ct)
	}
	samples, err := prom.Parse(resp.Body)
	if err != nil {
		t.Fatalf("parsing exposition: %v", err)
	}
	return samples
}

// TestMetricsEndpointCold: a cold scrape already serves every
// documented series — the per-class scheduler counters zero-filled for
// all three built-in classes, both cache label sets, the engine
// counters, and the policy info metric — so dashboards and the CI
// smoke can grep for fixed series names before any traffic.
func TestMetricsEndpointCold(t *testing.T) {
	srv, _ := newTestServer(t)
	m := scrapeMetrics(t, srv.URL)

	for _, class := range []string{"low", "normal", "high"} {
		for _, series := range []string{
			"fam_sched_granted_total", "fam_sched_shed_total", "fam_sched_stale_total",
			"fam_sched_queue_wait_seconds_total", "fam_sched_queue_depth",
		} {
			key := fmt.Sprintf(`%s{class="%s"}`, series, class)
			if _, ok := m[key]; !ok {
				t.Fatalf("cold scrape missing %s", key)
			}
		}
	}
	for _, cache := range []string{"prep", "result"} {
		for _, series := range []string{
			"fam_cache_hits_total", "fam_cache_misses_total", "fam_cache_coalesced_total",
			"fam_cache_evictions_total", "fam_cache_expired_total", "fam_cache_errors_total",
			"fam_cache_entries", "fam_cache_bytes", "fam_cache_max_bytes",
		} {
			key := fmt.Sprintf(`%s{cache="%s"}`, series, cache)
			if _, ok := m[key]; !ok {
				t.Fatalf("cold scrape missing %s", key)
			}
		}
	}
	for _, key := range []string{
		"fam_sched_deficit_grants_total",
		"fam_engine_selects_total", "fam_engine_evaluates_total",
		"fam_engine_batches_total", "fam_engine_batch_queries_total",
		"fam_engine_shed_total", "fam_engine_planned_dedups_total", "fam_engine_plan_groups_total",
		"fam_engine_pool_workers", "fam_engine_datasets", "fam_engine_uptime_seconds",
		"fam_http_uploads_total",
	} {
		if _, ok := m[key]; !ok {
			t.Fatalf("cold scrape missing %s", key)
		}
	}
	if m[`fam_sched_policy_info{policy="weighted-edf"}`] != 1 {
		t.Fatalf("policy info metric missing or wrong: %v", m)
	}
	if m["fam_engine_datasets"] != 1 {
		t.Fatalf("fam_engine_datasets = %v, want 1", m["fam_engine_datasets"])
	}
}

// TestMetricsPerClassGrantsAfterMixedBurst drives a priority-mixed
// burst and asserts the per-class grant counters all advanced — the
// observable form of the starvation-bound guarantee — plus the
// per-endpoint request counters and latency histogram of the serving
// route.
func TestMetricsPerClassGrantsAfterMixedBurst(t *testing.T) {
	// A small pool under a concurrent burst of explicitly parallel
	// requests: each request fans out wider than one goroutine no matter
	// the host's CPU count, so helper tickets of every class queue while
	// workers are popping — each class collects real grants, not just
	// stale sweeps.
	engine := fam.NewEngine(fam.EngineConfig{Workers: 2})
	t.Cleanup(engine.Close)
	ds, err := fam.Hotels(120, 3)
	if err != nil {
		t.Fatal(err)
	}
	dist, err := fam.UniformLinear(ds.Dim())
	if err != nil {
		t.Fatal(err)
	}
	if err := engine.Register("hotels", ds, dist); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHandler(engine))
	t.Cleanup(srv.Close)

	var wg sync.WaitGroup
	errs := make(chan string, 64)
	seed := uint64(100)
	for _, prio := range []string{"low", "normal", "high"} {
		for i := 0; i < 3; i++ {
			seed++
			prio, seed := prio, seed
			wg.Add(1)
			go func() {
				defer wg.Done()
				var resp BatchSelectResponse
				code := postJSON(t, srv.URL+"/v2/select", BatchSelectRequest{
					Queries: []QueryRequest{{Dataset: "hotels", K: 5, Seed: seed, SampleSize: 400}},
					Exec:    ExecRequest{Priority: prio, Parallelism: 4},
				}, &resp)
				if code != http.StatusOK {
					errs <- fmt.Sprintf("burst member (prio %s) status %d", prio, code)
					return
				}
				if len(resp.Results) != 1 || resp.Results[0].Error != "" {
					errs <- fmt.Sprintf("burst member (prio %s) failed: %+v", prio, resp.Results)
				}
			}()
		}
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}

	m := scrapeMetrics(t, srv.URL)
	for _, class := range []string{"low", "normal", "high"} {
		if g := m[fmt.Sprintf(`fam_sched_granted_total{class="%s"}`, class)]; g <= 0 {
			t.Fatalf("fam_sched_granted_total{class=%q} = %v after a mixed burst, want > 0", class, g)
		}
	}
	if m[`fam_cache_misses_total{cache="result"}`] <= 0 {
		t.Fatal("result-cache misses did not advance over cold queries")
	}
	if got := m[`fam_http_requests_total{code="200",endpoint="POST /v2/select"}`]; got < 9 {
		t.Fatalf("per-endpoint request counter = %v, want >= 9", got)
	}
	if got := m[`fam_http_request_duration_seconds_count{endpoint="POST /v2/select"}`]; got < 9 {
		t.Fatalf("latency histogram count = %v, want >= 9", got)
	}
	inf := m[`fam_http_request_duration_seconds_bucket{endpoint="POST /v2/select",le="+Inf"}`]
	if cnt := m[`fam_http_request_duration_seconds_count{endpoint="POST /v2/select"}`]; inf != cnt {
		t.Fatalf("+Inf bucket %v != histogram count %v", inf, cnt)
	}
	if m["fam_engine_batches_total"] < 9 || m["fam_engine_batch_queries_total"] < 9 {
		t.Fatalf("batch counters did not advance: %v / %v",
			m["fam_engine_batches_total"], m["fam_engine_batch_queries_total"])
	}
}

// TestMetricsRecordsErrorStatuses: failed requests land in the
// per-endpoint counters under their real status code.
func TestMetricsRecordsErrorStatuses(t *testing.T) {
	srv, _ := newTestServer(t)
	if code := postJSON(t, srv.URL+"/v1/select", SelectRequest{Dataset: "missing", K: 3}, &ErrorResponse{}); code != http.StatusNotFound {
		t.Fatalf("unknown dataset status %d", code)
	}
	m := scrapeMetrics(t, srv.URL)
	if got := m[`fam_http_requests_total{code="404",endpoint="POST /v1/select"}`]; got != 1 {
		t.Fatalf("404 counter = %v, want 1", got)
	}
}

var updateMetricsGolden = flag.Bool("update-metrics-golden", false,
	"rewrite testdata/metrics.golden from the current /metrics exposition")

// steppedClock is a deterministic handler clock: every call advances
// it by the current step, so a sequential request's measured duration
// is a fixed multiple of the step the test set for it.
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

// maskUnpinnable replaces the exposition values no test can pin — Go
// runtime gauges, the engine uptime, and the toolchain version label —
// with a fixed marker; every other byte of the body is compared.
func maskUnpinnable(body string) string {
	lines := strings.Split(body, "\n")
	for i, line := range lines {
		if strings.HasPrefix(line, "fam_go_") || strings.HasPrefix(line, "fam_engine_uptime_seconds ") {
			lines[i] = line[:strings.LastIndexByte(line, ' ')] + " <masked>"
		}
		if j := strings.Index(line, `go_version="`); j >= 0 {
			end := j + len(`go_version="`) + strings.IndexByte(line[j+len(`go_version="`):], '"')
			lines[i] = line[:j] + `go_version="<masked>"` + line[end+1:]
		}
	}
	return strings.Join(lines, "\n")
}

// TestMetricsExpositionGolden pins the full /metrics body byte for
// byte after a fixed request sequence under a stepped clock: every
// family's HELP/TYPE header, label rendering and order, bucket bounds,
// error statuses, the unmatched route, and the histogram sums.
// `go test -run MetricsExpositionGolden -update-metrics-golden ./serve`
// regenerates it after an intentional exposition change.
func TestMetricsExpositionGolden(t *testing.T) {
	// One P keeps every fan-out inline: no helper ticket is queued, so
	// the scheduler's grant/stale split and wall-clock queue wait (which
	// race the caller) stay at zero.
	procs := runtime.GOMAXPROCS(1)
	t.Cleanup(func() { runtime.GOMAXPROCS(procs) })
	engine := fam.NewEngine(fam.EngineConfig{Workers: 1})
	t.Cleanup(engine.Close)
	ds, err := fam.Hotels(120, 3)
	if err != nil {
		t.Fatal(err)
	}
	dist, err := fam.UniformLinear(ds.Dim())
	if err != nil {
		t.Fatal(err)
	}
	if err := engine.Register("hotels", ds, dist); err != nil {
		t.Fatal(err)
	}
	clock := &steppedClock{now: time.Unix(1_700_000_000, 0)}
	h := NewHandlerConfig(engine, HandlerConfig{Clock: clock.Now})

	selectBody := `{"dataset":"hotels","k":3,"seed":7,"sample_size":100}`
	steps := []struct {
		method, target, body string
		step                 time.Duration
		want                 int
	}{
		{"GET", "/v1/datasets", "", 500 * time.Microsecond, 200},
		{"POST", "/v1/select", selectBody, 2 * time.Millisecond, 200},
		{"POST", "/v1/select", selectBody, 100 * time.Millisecond, 200},
		{"POST", "/v1/select", `{"dataset":"missing","k":3}`, time.Millisecond, 404},
		{"POST", "/v2/select", `{"queries":[{"dataset":"hotels","k":2,"seed":7,"sample_size":100},{"dataset":"hotels","k":3,"seed":7,"sample_size":100}]}`, 1500 * time.Millisecond, 200},
		{"POST", "/v1/evaluate", `{"dataset":"hotels","set":[0,1,2],"sample_size":100}`, 30 * time.Second, 200},
		{"GET", "/nope", "", 3 * time.Millisecond, 404},
		{"POST", "/v1/datasets?name=mine", "label,a,b\np1,0.1,0.9\np2,0.9,0.1\np3,0.5,0.6\n", 10 * time.Millisecond, 201},
	}
	for _, s := range steps {
		clock.setStep(s.step)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(s.method, s.target, strings.NewReader(s.body)))
		if rec.Code != s.want {
			t.Fatalf("%s %s = %d, want %d: %s", s.method, s.target, rec.Code, s.want, rec.Body)
		}
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Fatalf("/metrics content type %q", ct)
	}
	got := maskUnpinnable(rec.Body.String())

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
		t.Fatalf("/metrics drifted from golden:\n-- got --\n%s\n-- want --\n%s", got, want)
	}
}
