package load

import (
	"bytes"
	"context"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	fam "github.com/regretlab/fam"
	"github.com/regretlab/fam/internal/prom"
)

func testSpec(rate float64, dur time.Duration, seed uint64) Spec {
	return Spec{
		Rate:     rate,
		Duration: dur,
		Seed:     seed,
		Templates: []Template{
			{Weight: 3, Base: Request{Dataset: "tiny", SampleSize: 40, Priority: "high"}, Ks: []int{2, 3}},
			{Weight: 1, Base: Request{Dataset: "tiny", SampleSize: 40, Priority: "low"}, Ks: []int{4}},
		},
	}
}

func newLoadEngine(t *testing.T) *fam.Engine {
	t.Helper()
	e, _, err := BuildEngine(fam.EngineConfig{Workers: 2}, "tiny=synthetic:25:3:independent:11", 0)
	if err != nil {
		t.Fatalf("BuildEngine: %v", err)
	}
	t.Cleanup(e.Close)
	return e
}

// Equal specs at equal seeds generate identical traces; a different
// seed moves the arrivals.
func TestGenerateDeterministic(t *testing.T) {
	a, err := testSpec(200, time.Second, 7).Generate()
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	b, err := testSpec(200, time.Second, 7).Generate()
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if len(a) == 0 {
		t.Fatal("empty trace")
	}
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if !reflect.DeepEqual(a[i], b[i]) {
			t.Fatalf("entry %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
	c, err := testSpec(200, time.Second, 8).Generate()
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if len(c) == len(a) && len(a) > 0 && c[0].TMS == a[0].TMS {
		t.Fatal("different seeds generated an identical first arrival")
	}
	// Arrivals must be ordered and inside the horizon.
	prev := 0.0
	for i, e := range a {
		if e.TMS < prev {
			t.Fatalf("entry %d out of order: %g after %g", i, e.TMS, prev)
		}
		if e.TMS >= 1000 {
			t.Fatalf("entry %d beyond horizon: %g", i, e.TMS)
		}
		prev = e.TMS
	}
	// Rate sanity: 200 rps over 1 s ≈ 200 arrivals.
	if len(a) < 100 || len(a) > 400 {
		t.Fatalf("poisson trace size %d wildly off the 200 mean", len(a))
	}
}

func TestGenerateArrivalProcesses(t *testing.T) {
	for _, arrival := range []string{ArrivalPoisson, ArrivalGamma, ArrivalUniform} {
		s := testSpec(500, time.Second, 3)
		s.Arrival = arrival
		trace, err := s.Generate()
		if err != nil {
			t.Fatalf("%s: %v", arrival, err)
		}
		if len(trace) < 250 || len(trace) > 1000 {
			t.Fatalf("%s: trace size %d off the 500 mean", arrival, len(trace))
		}
	}
	s := testSpec(100, time.Second, 3)
	s.Arrival = "fibonacci"
	if _, err := s.Generate(); err == nil {
		t.Fatal("unknown arrival process accepted")
	}
}

func TestTraceRoundTrip(t *testing.T) {
	trace, err := testSpec(100, time.Second, 5).Generate()
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	var buf bytes.Buffer
	if err := WriteTrace(&buf, trace); err != nil {
		t.Fatalf("WriteTrace: %v", err)
	}
	got, err := ReadTrace(&buf)
	if err != nil {
		t.Fatalf("ReadTrace: %v", err)
	}
	if len(got) != len(trace) {
		t.Fatalf("round trip lost entries: %d vs %d", len(got), len(trace))
	}
	for i := range got {
		if got[i].Dataset != trace[i].Dataset || got[i].K != trace[i].K ||
			got[i].Priority != trace[i].Priority || got[i].TMS != trace[i].TMS {
			t.Fatalf("entry %d differs after round trip: %+v vs %+v", i, got[i], trace[i])
		}
	}
}

func TestParseMix(t *testing.T) {
	ts, err := ParseMix("ds=hotels,k=2-4,prio=high,deadline=200,par=4,w=3;ds=cat,k=5|9,seed=1|2,algo=greedy-add")
	if err != nil {
		t.Fatalf("ParseMix: %v", err)
	}
	if len(ts) != 2 {
		t.Fatalf("want 2 templates, got %d", len(ts))
	}
	a := ts[0]
	if a.Base.Dataset != "hotels" || a.Weight != 3 || a.Base.Priority != "high" || a.Base.DeadlineMS != 200 || a.Base.Parallelism != 4 {
		t.Fatalf("template 0 mis-parsed: %+v", a)
	}
	if len(a.Ks) != 3 || a.Ks[0] != 2 || a.Ks[2] != 4 {
		t.Fatalf("k range mis-parsed: %v", a.Ks)
	}
	b := ts[1]
	if len(b.Ks) != 2 || b.Ks[1] != 9 || len(b.Seeds) != 2 || b.Seeds[1] != 2 || b.Base.Algorithm != "greedy-add" {
		t.Fatalf("template 1 mis-parsed: %+v", b)
	}
	for _, bad := range []string{"", "k=5", "ds=h", "ds=h,k=5,zebra=1", "ds=h,k=9-2"} {
		if _, err := ParseMix(bad); err == nil {
			t.Fatalf("ParseMix(%q) accepted", bad)
		}
	}
}

// Sequential (unpaced) replay of one trace against a deterministic
// engine must produce a byte-identical outcome sequence across runs —
// the famload -replay guarantee.
func TestReplayDeterministic(t *testing.T) {
	trace, err := testSpec(300, 500*time.Millisecond, 21).Generate()
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	runOnce := func() ([]Outcome, string) {
		e := newLoadEngine(t)
		outcomes, _, err := Run(context.Background(), EngineTarget{Engine: e}, trace, RunConfig{})
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		var buf bytes.Buffer
		if err := WriteOutcomes(&buf, outcomes); err != nil {
			t.Fatalf("WriteOutcomes: %v", err)
		}
		return outcomes, buf.String()
	}
	o1, bytes1 := runOnce()
	o2, bytes2 := runOnce()
	if OutcomeHash(o1) != OutcomeHash(o2) {
		t.Fatalf("outcome hashes differ across replays: %s vs %s", OutcomeHash(o1), OutcomeHash(o2))
	}
	if bytes1 != bytes2 {
		t.Fatal("outcome JSONL differs across replays")
	}
	// The trace mixes first-seen and repeated fingerprints, so the
	// deterministic sequence should contain both cold and cached
	// completions.
	var cold, warm int
	for _, o := range o1 {
		if o.Status != 200 {
			t.Fatalf("outcome %d: status %d (%s)", o.I, o.Status, o.Err)
		}
		if o.Cached {
			warm++
		} else {
			cold++
		}
	}
	if cold == 0 || warm == 0 {
		t.Fatalf("expected a mix of cold and cached outcomes, got cold=%d cached=%d", cold, warm)
	}
}

// The engine target maps failures to the same statuses the HTTP
// surface would answer.
func TestEngineTargetStatuses(t *testing.T) {
	e := newLoadEngine(t)
	target := EngineTarget{Engine: e}
	ctx := context.Background()
	for _, tc := range []struct {
		name string
		req  Request
		want int
	}{
		{"ok", Request{Dataset: "tiny", K: 2, SampleSize: 40}, 200},
		{"bad k", Request{Dataset: "tiny", K: -2, SampleSize: 40}, 400},
		{"bad algorithm", Request{Dataset: "tiny", K: 2, Algorithm: "bogosort", SampleSize: 40}, 400},
		{"unknown dataset", Request{Dataset: "nope", K: 2, SampleSize: 40}, 404},
		{"expired deadline", Request{Dataset: "tiny", K: 2, SampleSize: 40, DeadlineMS: -50}, 429},
		{"bad priority", Request{Dataset: "tiny", K: 2, SampleSize: 40, Priority: "argh"}, 400},
		{"evaluate", Request{Dataset: "tiny", Set: []int{0, 1}, SampleSize: 40}, 200},
		{"bad set", Request{Dataset: "tiny", Set: []int{0, 99999}, SampleSize: 40}, 400},
	} {
		o := target.Do(ctx, tc.req)
		if o.Status != tc.want {
			t.Errorf("%s: status %d, want %d (err %q)", tc.name, o.Status, tc.want, o.Err)
		}
		if tc.want == 429 && !o.Shed {
			t.Errorf("%s: 429 outcome not marked shed", tc.name)
		}
	}
}

func TestBuildReportAccounting(t *testing.T) {
	outcomes := []Outcome{
		{I: 0, Status: 200, Cached: false, Priority: "high", LatencyMS: 10, Warm: true},
		{I: 1, Status: 200, Cached: true, Priority: "high", LatencyMS: 2},
		{I: 2, Status: 200, Cached: false, Priority: "high", LatencyMS: 8},
		{I: 3, Status: 429, Shed: true, Priority: "low"},
		{I: 4, Status: 200, Cached: true, Priority: "low", LatencyMS: 4},
		{I: 5, Status: 400, Priority: ""},
	}
	r := BuildReport("t", "engine", outcomes, 2*time.Second, 500*time.Millisecond, RunConfig{})
	if r.Offered != 5 {
		t.Fatalf("Offered = %d, want 5 (warmup excluded)", r.Offered)
	}
	if got := r.Completed + r.Shed + r.Errors; got != r.Offered {
		t.Fatalf("accounting broken: %d+%d+%d != %d", r.Completed, r.Shed, r.Errors, r.Offered)
	}
	if r.Completed != 3 || r.Shed != 1 || r.Errors != 1 {
		t.Fatalf("counts: completed=%d shed=%d errors=%d", r.Completed, r.Shed, r.Errors)
	}
	if r.ShedRate != 0.2 {
		t.Fatalf("ShedRate = %g, want 0.2", r.ShedRate)
	}
	if math.Abs(r.ThroughputRPS-2.0) > 1e-9 { // 3 completed / 1.5 s measured
		t.Fatalf("ThroughputRPS = %g, want 2", r.ThroughputRPS)
	}
	if math.Abs(r.CachedFraction-2.0/3) > 1e-9 {
		t.Fatalf("CachedFraction = %g, want 2/3", r.CachedFraction)
	}
	if len(r.Classes) != 3 {
		t.Fatalf("classes: %v", r.Classes)
	}
	high := r.Classes["high"]
	if high.Offered != 2 || high.Completed != 2 || high.CompletionRate != 1 {
		t.Fatalf("high class: %+v", high)
	}
	low := r.Classes["low"]
	if low.Offered != 2 || low.Shed != 1 || low.CompletionRate != 0.5 {
		t.Fatalf("low class: %+v", low)
	}
	if r.JainIndex <= 0 || r.JainIndex > 1 {
		t.Fatalf("JainIndex = %g out of (0,1]", r.JainIndex)
	}
	if !strings.HasPrefix(r.OutcomeHash, "fnv1a:") {
		t.Fatalf("OutcomeHash = %q", r.OutcomeHash)
	}
}

func TestJain(t *testing.T) {
	if j := Jain([]float64{1, 1, 1}); math.Abs(j-1) > 1e-12 {
		t.Fatalf("Jain(equal) = %g", j)
	}
	if j := Jain([]float64{1, 0, 0, 0}); math.Abs(j-0.25) > 1e-12 {
		t.Fatalf("Jain(starved) = %g, want 0.25", j)
	}
	if j := Jain(nil); j != 1 {
		t.Fatalf("Jain(nil) = %g", j)
	}
	// All classes at zero is a total outage — the opposite of fair. It
	// must read 0, not 1 (the old behaviour made an outage pass the CI
	// fairness gate).
	if j := Jain([]float64{0, 0, 0}); j != 0 {
		t.Fatalf("Jain(all-zero) = %g, want 0", j)
	}
}

// TestStatusCode pins the outcome-artifact code table against serve's
// envelope codes: 409 and 413 (both reachable via dataset uploads)
// must carry their own codes, not fold into "internal".
func TestStatusCode(t *testing.T) {
	cases := []struct {
		status int
		want   string
	}{
		{200, ""},
		{400, "bad_request"},
		{403, "forbidden"},
		{404, "not_found"},
		{409, "conflict"},
		{413, "payload_too_large"},
		{429, "shed"},
		{502, "bad_gateway"},
		{503, "unavailable"},
		{500, "internal"},
		{418, "internal"},
	}
	for _, c := range cases {
		if got := statusCode(c.status); got != c.want {
			t.Fatalf("statusCode(%d) = %q, want %q", c.status, got, c.want)
		}
	}
}

// TestParseMetricsRoundtrip: a famserve-shaped scrape read by
// prom.Parse reconstructs into the cache and per-class sched
// EngineStats fields the report deltas consume.
func TestParseMetricsRoundtrip(t *testing.T) {
	text := `# HELP fam_sched_granted_total Helper requests granted, by class.
# TYPE fam_sched_granted_total counter
fam_sched_granted_total{class="high"} 40
fam_sched_granted_total{class="low"} 2
fam_sched_shed_total{class="low"} 1
fam_sched_stale_total{class="normal"} 3
fam_sched_deficit_grants_total 5

fam_cache_hits_total{cache="result"} 7
fam_cache_misses_total{cache="result"} 11
fam_cache_hits_total{cache="prep"} 13
fam_cache_misses_total{cache="prep"} 17
fam_engine_uptime_seconds 1.25
`
	m, err := prom.Parse(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	s := EngineStatsFromMetrics(m)
	if s.ResultCache.Hits != 7 || s.ResultCache.Misses != 11 || s.PrepCache.Hits != 13 || s.PrepCache.Misses != 17 {
		t.Fatalf("cache reconstruction: %+v", s)
	}
	if s.Sched.DeficitGrants != 5 || s.Sched.Granted != 42 {
		t.Fatalf("sched reconstruction: %+v", s.Sched)
	}
	if s.Sched.PerClass["high"].Granted != 40 || s.Sched.PerClass["low"].Granted != 2 ||
		s.Sched.PerClass["low"].Shed != 1 || s.Sched.PerClass["normal"].Stale != 3 {
		t.Fatalf("per-class reconstruction: %+v", s.Sched.PerClass)
	}
}

// TestSchedRatesFrom: the run-window delta view subtracts the before
// snapshot per class and drops classes with no activity.
func TestSchedRatesFrom(t *testing.T) {
	var before, after fam.EngineStats
	before.Sched.Granted = 10
	before.Sched.DeficitGrants = 1
	before.Sched.PerClass = map[string]fam.SchedClassStats{
		"high": {Granted: 8},
		"low":  {Granted: 2},
	}
	after.Sched.Granted = 50
	after.Sched.DeficitGrants = 4
	after.Sched.PerClass = map[string]fam.SchedClassStats{
		"high":   {Granted: 40},
		"low":    {Granted: 8, Shed: 2},
		"normal": {}, // present but idle over the window
	}
	s := SchedRatesFrom(before, after)
	if s.Granted != 40 || s.DeficitGrants != 3 {
		t.Fatalf("totals: %+v", s)
	}
	if s.Classes["high"].Granted != 32 || s.Classes["low"].Granted != 6 || s.Classes["low"].Shed != 2 {
		t.Fatalf("classes: %+v", s.Classes)
	}
	if _, ok := s.Classes["normal"]; ok {
		t.Fatal("idle class must be dropped from the delta view")
	}
}

// Paced runs execute every entry and respect the warmup marking.
func TestRunPaced(t *testing.T) {
	spec := testSpec(400, 300*time.Millisecond, 2)
	trace, err := spec.Generate()
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	e := newLoadEngine(t)
	outcomes, wall, err := Run(context.Background(), EngineTarget{Engine: e}, trace,
		RunConfig{Paced: true, Warmup: 100 * time.Millisecond, Speed: 2})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if wall <= 0 {
		t.Fatal("no wall time")
	}
	var warm, measured int
	for i, o := range outcomes {
		if o.I != i {
			t.Fatalf("outcome %d has index %d", i, o.I)
		}
		if o.Warm {
			warm++
		} else {
			measured++
		}
	}
	if warm == 0 || measured == 0 {
		t.Fatalf("warmup split degenerate: warm=%d measured=%d", warm, measured)
	}
}

func TestCacheRatesFrom(t *testing.T) {
	var before, after fam.EngineStats
	before.ResultCache.Hits, before.ResultCache.Misses = 10, 5
	after.ResultCache.Hits, after.ResultCache.Misses = 40, 15
	before.PrepCache.Hits, before.PrepCache.Misses = 2, 2
	after.PrepCache.Hits, after.PrepCache.Misses = 2, 2
	c := CacheRatesFrom(before, after)
	if c.ResultHits != 30 || c.ResultMisses != 10 || c.ResultHitRate != 0.75 {
		t.Fatalf("result rates: %+v", c)
	}
	if c.PrepHitRate != -1 {
		t.Fatalf("prep rate of empty window = %g, want -1", c.PrepHitRate)
	}
}

func TestParseDatasetSpecs(t *testing.T) {
	specs, err := ParseDatasetSpecs("hotels:50,cat=synthetic:30:2:anticorrelated:3")
	if err != nil {
		t.Fatalf("ParseDatasetSpecs: %v", err)
	}
	if len(specs) != 2 || specs[0].Name != "hotels" || specs[1].Name != "cat" {
		t.Fatalf("specs mis-parsed: %+v", specs)
	}
	if specs[1].DS.N() != 30 || specs[1].DS.Dim() != 2 {
		t.Fatalf("synthetic spec mis-built: n=%d dim=%d", specs[1].DS.N(), specs[1].DS.Dim())
	}
	if _, err := ParseDatasetSpecs("hotels:10,hotels:20"); err == nil {
		t.Fatal("duplicate name accepted")
	}
	if _, err := ParseDatasetSpecs(""); err == nil {
		t.Fatal("empty spec accepted")
	}
}

// countingTarget records which target served each request.
type countingTarget struct {
	id    int
	calls *[]int
	mu    *sync.Mutex
}

func (t countingTarget) Do(ctx context.Context, req Request) Outcome {
	t.mu.Lock()
	*t.calls = append(*t.calls, t.id)
	t.mu.Unlock()
	return Outcome{Status: 200}
}

// MultiTarget stripes strictly round-robin, so a sequential run's
// target sequence is the repeating rotation.
func TestMultiTargetRoundRobin(t *testing.T) {
	var calls []int
	var mu sync.Mutex
	mt, err := NewMultiTarget(
		countingTarget{id: 0, calls: &calls, mu: &mu},
		countingTarget{id: 1, calls: &calls, mu: &mu},
		countingTarget{id: 2, calls: &calls, mu: &mu},
	)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 7; i++ {
		if o := mt.Do(context.Background(), Request{}); o.Status != 200 {
			t.Fatalf("call %d status %d", i, o.Status)
		}
	}
	want := []int{0, 1, 2, 0, 1, 2, 0}
	if !reflect.DeepEqual(calls, want) {
		t.Fatalf("striping %v, want %v", calls, want)
	}

	if _, err := NewMultiTarget(); err == nil {
		t.Fatal("empty MultiTarget accepted")
	}
	if _, err := NewMultiTarget(nil); err == nil {
		t.Fatal("nil member accepted")
	}
}
