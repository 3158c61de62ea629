package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"time"

	"github.com/regretlab/fam"
	"github.com/regretlab/fam/internal/core"
	"github.com/regretlab/fam/internal/coreset"
	"github.com/regretlab/fam/internal/par"
	"github.com/regretlab/fam/internal/rng"
	"github.com/regretlab/fam/internal/sampling"
	"github.com/regretlab/fam/internal/sched"
	"github.com/regretlab/fam/internal/skyline"
	"github.com/regretlab/fam/serve"
)

// prepState is the outcome of replaying the Engine's preprocessing:
// the candidate indices the instance was built over and the instance.
type prepState struct {
	candidates []int
	in         *core.Instance
	skySize    int
	csIn       int // candidates entering the coreset prepass (0 when off)
	csOut      int
	layers     time.Duration // summed duration of the layer spans
}

// replayPrepare calls the layers an Engine runs for a cold query's
// preprocessing — skyline, sampling, coreset, instance build — in the
// Engine's order and with its settings, each under a span named after
// the Engine's fill stage.
func (e *env) replayPrepare(req, parent int, pool *par.Pool, ds *fam.Dataset, q fam.Query) (*prepState, error) {
	st := &prepState{}
	id := e.tr.start(req, parent, "fill.sky", "")
	sky, err := skyline.ComputeOpts(e.ctx, ds.Points, skyline.ComputeOptions{Pool: pool})
	st.layers += e.tr.end(id)
	if err != nil {
		return nil, err
	}
	st.skySize = len(sky)
	candidates := sky
	if len(sky) <= q.K {
		candidates = identity(ds.N())
	}

	n, err := sampling.SampleSize(0.1, 0.1)
	if err != nil {
		return nil, err
	}
	id = e.tr.start(req, parent, "fill.funcs", "")
	funcs, err := sampling.Sample(e.dist, n, rng.New(q.Seed))
	st.layers += e.tr.end(id)
	if err != nil {
		return nil, err
	}

	if q.Coreset {
		id = e.tr.start(req, parent, "fill.coreset", "")
		cs, err := coreset.Filter(sched.NewContext(e.ctx, sched.Attrs{}), ds.Points, candidates, funcs,
			coreset.Options{Eps: fam.DefaultCoresetEps, Pool: pool})
		st.layers += e.tr.end(id)
		if err != nil {
			return nil, err
		}
		st.csIn, st.csOut = len(candidates), len(cs)
		if len(cs) > q.K {
			candidates = cs
		}
	}

	id = e.tr.start(req, parent, "fill.inst", "")
	points := ds.Points
	if len(candidates) != ds.N() {
		points = make([][]float64, len(candidates))
		for i, c := range candidates {
			points[i] = ds.Points[c]
		}
	}
	in, err := core.NewInstance(points, funcs, core.Options{Pool: pool})
	st.layers += e.tr.end(id)
	if err != nil {
		return nil, err
	}
	st.candidates, st.in = candidates, in
	return st, nil
}

// replaySolve runs q's solver and the metrics evaluation on a replayed
// instance, as the Engine's query phase does, and maps the selection
// back to dataset indices.
func (e *env) replaySolve(req, parent int, st *prepState, q fam.Query) (*fam.Result, core.ShrinkStats, error) {
	var (
		local []int
		stats core.ShrinkStats
		err   error
	)
	id := e.tr.start(req, parent, "solve", q.Algorithm.String())
	switch q.Algorithm {
	case fam.GreedyShrink:
		local, stats, err = core.GreedyShrink(e.ctx, st.in, q.K, core.StrategyDelta)
	case fam.GreedyShrinkLazy:
		local, stats, err = core.GreedyShrink(e.ctx, st.in, q.K, core.StrategyLazy)
	case fam.GreedyAdd:
		local, stats, err = core.GreedyAdd(e.ctx, st.in, q.K)
	default:
		err = fmt.Errorf("replay does not cover algorithm %s", q.Algorithm)
	}
	st.layers += e.tr.end(id)
	if err != nil {
		return nil, stats, err
	}
	id = e.tr.start(req, parent, "evaluate", "")
	m, err := st.in.Evaluate(local, nil)
	st.layers += e.tr.end(id)
	if err != nil {
		return nil, stats, err
	}
	res := &fam.Result{Metrics: m, Indices: make([]int, len(local))}
	for i, p := range local {
		res.Indices[i] = st.candidates[p]
	}
	return res, stats, nil
}

// sameAnswer verifies that a replayed selection reproduces the Engine's
// answer bit for bit.
func (e *env) sameAnswer(label string, engine, replay *fam.Result) {
	if !reflect.DeepEqual(engine.Indices, replay.Indices) || !reflect.DeepEqual(engine.Metrics, replay.Metrics) {
		e.chk.fail("%s: layer replay %v (arr %v) differs from the Engine's %v (arr %v)",
			label, replay.Indices, replay.Metrics.ARR, engine.Indices, engine.Metrics.ARR)
	}
}

// cold is one cold query: a fresh engine with the dataset registered,
// the Engine's answer and Select time and, when the query was replayed,
// the replayed preprocessing.
type cold struct {
	eng *fam.Engine
	res *fam.Result
	tel *fam.Telemetry
	dur time.Duration
	st  *prepState
}

// glueSample pairs a cold Select's time with the summed time of its
// replay's layer spans.
type glueSample struct{ selectMS, layersMS float64 }

func (c *cold) glueSample() glueSample { return glueSample{ms(c.dur), ms(c.st.layers)} }

// coldQuery registers ds under q.Dataset on a fresh engine and issues
// q as its first Select. With a pool it also replays the query layer by
// layer on that pool, which must have the engine's width, and checks
// the replay against the Engine's answer; replay and Select alternate
// which runs first, so neither always runs on a warmer machine. The
// caller closes the engine.
func (e *env) coldQuery(ds *fam.Dataset, q fam.Query, pool *par.Pool) (*cold, error) {
	req := e.tr.request()
	root := e.tr.start(req, 0, "cold_query", "")
	defer e.tr.end(root)
	c := &cold{eng: fam.NewEngine(fam.EngineConfig{Workers: e.workers})}
	id := e.tr.start(req, root, "register", "")
	err := c.eng.Register(q.Dataset, ds, e.dist)
	e.tr.end(id)
	if err != nil {
		c.eng.Close()
		return nil, err
	}
	engineSelect := func() error {
		id := e.tr.start(req, root, "engine.select", "")
		defer e.tr.end(id)
		start := time.Now()
		var err error
		c.res, c.tel, err = c.eng.Select(e.ctx, q, fam.Exec{})
		c.dur = time.Since(start)
		return err
	}
	var got *fam.Result
	replay := func() error {
		id := e.tr.start(req, root, "replay", "")
		defer e.tr.end(id)
		var err error
		if c.st, err = e.replayPrepare(req, id, pool, ds, q); err != nil {
			return err
		}
		got, _, err = e.replaySolve(req, id, c.st, q)
		return err
	}
	steps := []func() error{engineSelect}
	if pool != nil {
		steps = append(steps, replay)
		if req%2 == 1 {
			steps[0], steps[1] = replay, engineSelect
		}
	}
	for _, step := range steps {
		if err := step(); err != nil {
			c.eng.Close()
			return nil, err
		}
	}
	if pool != nil {
		e.sameAnswer("cold replay", c.res, got)
	}
	return c, nil
}

// layerProbe measures every layer once more on the workload's data:
// cold queries against their replays, the three solvers and the
// adaptive lazy refresh on the replayed instance. It reports the per-layer
// metrics that come from spans, so spans recorded earlier in the run
// count too, and fam.glue_ms from the probe's and the earlier replayed
// cold queries. It returns the probe engine with ds registered.
func (e *env) layerProbe(ds *fam.Dataset, q fam.Query, replayed []glueSample) (*fam.Engine, error) {
	pool := par.NewPool(e.workers)
	defer pool.Close()
	// Three cold replays at least, so fam.glue_ms compares medians.
	var c *cold
	for len(replayed) < 3 || c == nil {
		if c != nil {
			c.eng.Close()
		}
		var err error
		if c, err = e.coldQuery(ds, q, pool); err != nil {
			return nil, err
		}
		replayed = append(replayed, c.glueSample())
	}
	eng, st := c.eng, c.st
	req := e.tr.request()
	var lazy []int
	var evals int
	for _, algo := range sweepAlgos {
		pq := q
		pq.Algorithm = algo
		res, stats, err := e.replaySolve(req, 0, st, pq)
		if err != nil {
			eng.Close()
			return nil, err
		}
		if algo == fam.GreedyShrinkLazy {
			lazy, evals = res.Indices, stats.Evaluations
		}
	}
	// The adaptive batched refresh must pick the serial refresh's set;
	// its speculative counters give the refresh hit rate.
	adaptive, stats, err := core.GreedyShrink(e.ctx, st.in.WithExecution(0, -1, pool, sched.Attrs{}), q.K, core.StrategyLazy)
	if err != nil {
		eng.Close()
		return nil, err
	}
	for i := range adaptive {
		adaptive[i] = st.candidates[adaptive[i]]
	}
	if !reflect.DeepEqual(adaptive, lazy) {
		e.chk.fail("adaptive lazy refresh chose %v, serial refresh %v", adaptive, lazy)
	}
	specFrac := 0.0
	if stats.SpeculativeEvals > 0 {
		specFrac = float64(stats.SpeculativeHits) / float64(stats.SpeculativeEvals)
	}

	e.report("engine.register_ms", median(e.tr.selfTimes("register", "")), "ms", 0)
	e.report("skyline.compute_ms", median(e.tr.selfTimes("fill.sky", "")), "ms", 0)
	e.report("skyline.size", float64(st.skySize), "count", 0)
	e.report("sampling.sample_ms", median(e.tr.selfTimes("fill.funcs", "")), "ms", 0)
	csIn, csOut := st.csIn, st.csOut
	if !q.Coreset {
		// The workload runs without the prepass; measure it on the same
		// candidates so the layer still has a number here.
		id := e.tr.start(req, 0, "fill.coreset", "")
		cs, err := coreset.Filter(e.ctx, ds.Points, st.candidates, st.in.Funcs,
			coreset.Options{Eps: fam.DefaultCoresetEps, Pool: pool})
		e.tr.end(id)
		if err != nil {
			eng.Close()
			return nil, err
		}
		csIn, csOut = len(st.candidates), len(cs)
	}
	e.report("coreset.filter_ms", median(e.tr.selfTimes("fill.coreset", "")), "ms", 0)
	e.report("coreset.kept_frac", float64(csOut)/float64(csIn), "ratio", 0)
	e.report("core.new_instance_ms", median(e.tr.selfTimes("fill.inst", "")), "ms", 0)
	e.report("core.instance_mb", float64(st.in.MemoryFootprint())/(1<<20), "MB", 0)
	e.report("core.shrink_delta_ms", median(e.tr.selfTimes("solve", fam.GreedyShrink.String())), "ms", 0)
	e.report("core.shrink_lazy_ms", median(e.tr.selfTimes("solve", fam.GreedyShrinkLazy.String())), "ms", 0)
	e.report("core.add_ms", median(e.tr.selfTimes("solve", fam.GreedyAdd.String())), "ms", 0)
	e.report("core.evaluations", float64(evals), "count", 0)
	e.report("core.lazy_spec_hit_frac", specFrac, "ratio", 0)
	e.report("core.evaluate_ms", median(e.tr.selfTimes("evaluate", "")), "ms", 0)
	var selects, layers []float64
	for _, g := range replayed {
		selects, layers = append(selects, g.selectMS), append(layers, g.layersMS)
	}
	// One replay differs from its Select by tens of ms of run-to-run
	// noise on a small machine, so the glue compares medians.
	e.report("fam.glue_ms", median(selects)-median(layers), "ms", len(replayed))
	return eng, nil
}

// hitReps is how many warm hits each in-process and HTTP probe times.
const hitReps = 31

// warmProbe times result-cache hits in process at n = 10⁴ and 10⁶, the
// serve handler on an httptest recorder, its response encoding, and the
// loopback HTTP round trip, all for the 10⁴ hit.
func (e *env) warmProbe(eng *fam.Engine, hit4, hit6 fam.Query) error {
	hitUS := func(q fam.Query) (float64, error) {
		start := time.Now()
		res, _, err := eng.Select(e.ctx, q, fam.Exec{})
		us := float64(time.Since(start)) / float64(time.Microsecond)
		if err == nil && !res.Cached {
			e.chk.fail("warm probe on %s: repeated query missed the result cache", q.Dataset)
		}
		return us, err
	}
	// Fill both entries first; the probes time only hits.
	for _, q := range []fam.Query{hit4, hit6} {
		if _, _, err := eng.Select(e.ctx, q, fam.Exec{}); err != nil {
			return err
		}
	}
	var h6 []float64
	for i := 0; i < hitReps; i++ {
		us, err := hitUS(hit6)
		if err != nil {
			return err
		}
		h6 = append(h6, us)
	}

	body, err := json.Marshal(serve.BatchSelectRequest{Queries: []serve.QueryRequest{queryRequest(hit4)}})
	if err != nil {
		return err
	}
	// Each handler call is paired with an in-process hit just before
	// it, so drift between the two cancels in the difference.
	handler := serve.NewHandler(eng)
	var h4, serveUS, encodeUS []float64
	for i := 0; i < hitReps; i++ {
		us, err := hitUS(hit4)
		if err != nil {
			return err
		}
		h4 = append(h4, us)
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/v2/select", bytes.NewReader(body))
		start := time.Now()
		handler.ServeHTTP(rec, req)
		serveUS = append(serveUS, float64(time.Since(start))/float64(time.Microsecond)-us)
		var resp serve.BatchSelectResponse
		if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &resp) != nil {
			return fmt.Errorf("serve probe: status %d body %s", rec.Code, rec.Body.String())
		}
		// The serve layer's encode step, replayed on the decoded answer.
		id := e.tr.start(e.tr.request(), 0, "encode", "")
		start = time.Now()
		err = json.NewEncoder(io.Discard).Encode(resp)
		encodeUS = append(encodeUS, float64(time.Since(start))/float64(time.Microsecond))
		e.tr.end(id)
		if err != nil {
			return err
		}
	}
	e.report("engine.hit_1e4_us", median(h4), "us", hitReps)
	e.report("engine.hit_1e6_us", median(h6), "us", hitReps)
	e.report("serve.overhead_us", median(serveUS), "us", hitReps)
	e.report("serve.encode_us", median(encodeUS), "us", hitReps)

	// Loopback round trips against a handler wrapper that times the
	// server side, so the difference is the HTTP cost alone. Requests go
	// one at a time, so each handler time pairs with its own round trip.
	handled := make(chan time.Duration, 1)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		handler.ServeHTTP(w, r)
		handled <- time.Since(start)
	}))
	defer srv.Close()
	client := srv.Client()
	defer client.CloseIdleConnections()
	var httpUS []float64
	for i := 0; i < hitReps; i++ {
		start := time.Now()
		a, _, err := postSelect(client, srv.URL, body, 0, 0)
		rtt := time.Since(start)
		if err != nil {
			return err
		}
		e.chk.checkAnswer("http probe", a, hit4.K, 10_000)
		httpUS = append(httpUS, float64(rtt-<-handled)/float64(time.Microsecond))
	}
	e.report("http.overhead_us", median(httpUS), "us", hitReps)
	return nil
}

// engineStats accumulates EngineStats deltas over a window.
type engineStats struct {
	resHits, resMisses, prepHits, prepMisses, evictions, shed uint64
	prepBytes                                                 int64
}

func (s *engineStats) add(before, after fam.EngineStats) {
	s.resHits += after.ResultCache.Hits - before.ResultCache.Hits
	s.resMisses += after.ResultCache.Misses - before.ResultCache.Misses
	s.prepHits += after.PrepCache.Hits - before.PrepCache.Hits
	s.prepMisses += after.PrepCache.Misses - before.PrepCache.Misses
	s.evictions += after.PrepCache.Evictions - before.PrepCache.Evictions
	s.shed += after.Shed - before.Shed
	s.prepBytes = after.PrepCache.Bytes
}

// reportWindow reports the per-layer metrics a workload's own traffic
// produces: cache behaviour, scheduler waits and sheds, generator
// lateness, and the tracing overhead (traced minus untraced p50 of the
// workload's headline latency).
func (e *env) reportWindow(s engineStats, queueWaitMS, lateMS []float64, untracedP50, tracedP50 float64) {
	rate := func(h, m uint64) float64 {
		if h+m == 0 {
			return 0
		}
		return float64(h) / float64(h+m)
	}
	e.report("engine.result_hit_rate", rate(s.resHits, s.resMisses), "ratio", 0)
	e.report("engine.prep_hit_rate", rate(s.prepHits, s.prepMisses), "ratio", 0)
	e.report("engine.prep_evictions", float64(s.evictions), "count", 0)
	e.report("engine.prep_cache_mb", float64(s.prepBytes)/(1<<20), "MB", 0)
	e.report("sched.queue_wait_p99_ms", percentile(queueWaitMS, 0.99), "ms", len(queueWaitMS))
	e.report("sched.shed", float64(s.shed), "count", 0)
	e.report("loadgen.late_p99_ms", percentile(lateMS, 0.99), "ms", len(lateMS))
	e.report("trace.overhead_ms", tracedP50-untracedP50, "ms", 0)
}

// queryRequest is the v2 wire form of an Engine query.
func queryRequest(q fam.Query) serve.QueryRequest {
	return serve.QueryRequest{Dataset: q.Dataset, K: q.K, Algorithm: q.Algorithm, Seed: q.Seed, Coreset: q.Coreset}
}

// postSelect sends one v2 batch body and decodes its single member. A
// non-zero span is sent along for the server-side span's parent.
func postSelect(client *http.Client, url string, body []byte, req, span int) (answer, *serve.SelectResponse, error) {
	hreq, err := http.NewRequest(http.MethodPost, url+"/v2/select", bytes.NewReader(body))
	if err != nil {
		return answer{}, nil, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	if span != 0 {
		hreq.Header.Set(headerReq, strconv.Itoa(req))
		hreq.Header.Set(headerSpan, strconv.Itoa(span))
	}
	resp, err := client.Do(hreq)
	if err != nil {
		return answer{}, nil, err
	}
	defer resp.Body.Close()
	var out serve.BatchSelectResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return answer{}, nil, fmt.Errorf("decoding /v2/select answer (status %d): %w", resp.StatusCode, err)
	}
	if resp.StatusCode != http.StatusOK || len(out.Results) != 1 || out.Results[0].SelectResponse == nil {
		msg := ""
		if len(out.Results) == 1 {
			msg = out.Results[0].Error
		}
		return answer{}, nil, fmt.Errorf("/v2/select: status %d, %d results, error %q", resp.StatusCode, len(out.Results), msg)
	}
	r := out.Results[0].SelectResponse
	return answer{Indices: r.Indices, ARR: r.Metrics.ARR}, r, nil
}

func identity(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}
