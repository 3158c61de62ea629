package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"sync"
	"syscall"
	"time"

	"github.com/regretlab/fam"
	"github.com/regretlab/fam/internal/load"
	"github.com/regretlab/fam/serve"
)

// mixRate is serve_mix's offered load in requests per second: it keeps
// about 40% of a 2-CPU machine busy with this mix. Higher rates put the
// median hit in the queue behind fills and made it unsteady.
const mixRate = 30.0

// mixPrepBytes bounds serve_mix's preprocessing cache so that each fill
// on mid (a 40 MB utility matrix) evicts older artifacts.
const mixPrepBytes = 128 << 20

// hitKs are the K values of the pre-filled fingerprints on small and big.
var hitKs = []int{5, 10, 15, 20}

// The request classes of serve_mix.
const (
	classSmall = iota // result-cache hit on the 10⁴-point dataset
	classBig          // result-cache hit on the 10⁶-point dataset
	classFill         // new seed on the 10⁵-point dataset: a prep fill
)

var classNames = []string{"hit_1e4", "hit_1e6", "fill"}

// mixBlock is one block of the serve_mix class sequence: 45% hits on
// small, 45% on big, 10% fills.
var mixBlock = []int{
	classSmall, classSmall, classSmall, classSmall, classSmall, classSmall, classSmall, classSmall, classSmall,
	classBig, classBig, classBig, classBig, classBig, classBig, classBig, classBig, classBig,
	classFill, classFill,
}

// Headers that carry the client span to the server-side wrapper.
const (
	headerReq  = "X-Bench-Req"
	headerSpan = "X-Bench-Span"
)

type mixSetup struct {
	data map[string]*fam.Dataset
	eng  *fam.Engine
	srv  *httptest.Server
}

func (s *mixSetup) close() {
	if s.srv != nil {
		s.srv.Close()
	}
	s.eng.Close()
}

// mixOutcome is one serve_mix request as the client saw it.
type mixOutcome struct {
	late, lat time.Duration // send time and completion, both from when it was due
	traced    bool
	ans       answer
	resp      *serve.SelectResponse
	err       error
}

// serveMix is the serve_mix workload: serve.NewHandler over one Engine
// on a loopback listener, driven open-loop at mixRate with one-member
// POST /v2/select batches — about 90% repeats of pre-filled
// fingerprints on small and big, 10% new seeds on mid.
func serveMix(e *env) error {
	dsSeeds := []uint64{e.g.Uint64(), e.g.Uint64(), e.g.Uint64()}
	hitSeed, midSeed0, schedSeed, fillBase := e.g.Uint64(), e.g.Uint64(), e.g.Uint64(), e.g.Uint64()
	// Queries on big take cold_1m's shape, coreset prepass on.
	var hitQueries []fam.Query
	for _, name := range []string{"small", "big"} {
		for _, k := range hitKs {
			hitQueries = append(hitQueries, fam.Query{Dataset: name, K: k, Algorithm: fam.GreedyShrinkLazy, Seed: hitSeed, Coreset: name == "big"})
		}
	}

	su, setupS, err := setupTimes(3, func() (*mixSetup, error) {
		su := &mixSetup{data: map[string]*fam.Dataset{}, eng: fam.NewEngine(fam.EngineConfig{Workers: e.workers, PrepCacheBytes: mixPrepBytes})}
		err := func() error {
			for i, spec := range []struct {
				name string
				n    int
				corr fam.Correlation
			}{{"small", 10_000, fam.Anticorrelated}, {"big", 1_000_000, fam.Independent}, {"mid", 100_000, fam.Anticorrelated}} {
				ds, err := fam.Synthetic(spec.n, 4, spec.corr, dsSeeds[i])
				if err != nil {
					return err
				}
				if err := su.eng.Register(spec.name, ds, e.dist); err != nil {
					return err
				}
				su.data[spec.name] = ds
			}
			prefill := append([]fam.Query{{Dataset: "mid", K: 10, Algorithm: fam.GreedyShrinkLazy, Seed: midSeed0}}, hitQueries...)
			for _, q := range prefill {
				if _, _, err := su.eng.Select(e.ctx, q, fam.Exec{}); err != nil {
					return err
				}
			}
			return nil
		}()
		if err != nil {
			su.close()
			return nil, err
		}
		su.srv = httptest.NewServer(e.tracedHandler(serve.NewHandler(su.eng)))
		return su, nil
	}, (*mixSetup).close)
	if err != nil {
		return err
	}
	defer su.close()

	// Spec.Generate gives the Poisson arrival times. Classes are dealt in
	// seeded shuffles of mixBlock, so every run carries the nominal mix
	// exactly and only the arrival pattern varies with the seed: with
	// independent draws the fill count alone moves by ±13% between
	// seeds, and the hit latencies with it.
	entries, err := load.Spec{Rate: mixRate, Duration: e.window, Arrival: load.ArrivalPoisson, Seed: schedSeed,
		Templates: []load.Template{{}}}.Generate()
	if err != nil {
		return err
	}
	queries := make([]fam.Query, len(entries))
	classes := make([]int, len(entries))
	bodies := make([][]byte, len(entries))
	byClass := make([][]int, len(classNames))
	var block []int
	for i := range entries {
		if len(block) == 0 {
			for _, j := range e.g.Perm(len(mixBlock)) {
				block = append(block, mixBlock[j])
			}
		}
		class := block[0]
		block = block[1:]
		var q fam.Query
		switch class {
		case classSmall, classBig:
			q = hitQueries[(class-classSmall)*len(hitKs)+e.g.IntN(len(hitKs))]
		default:
			q = fam.Query{Dataset: "mid", K: 10, Algorithm: fam.GreedyShrinkLazy, Seed: fillBase + uint64(len(byClass[classFill]))}
		}
		classes[i], queries[i] = class, q
		byClass[class] = append(byClass[class], i)
		if bodies[i], err = json.Marshal(serve.BatchSelectRequest{Queries: []serve.QueryRequest{queryRequest(q)}}); err != nil {
			return err
		}
	}
	// One seeded request of each class is checked against one-shot Select.
	var oneShot []int
	for _, idx := range byClass {
		if len(idx) > 0 {
			oneShot = append(oneShot, idx[e.g.IntN(len(idx))])
		}
	}

	client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: e.workers, MaxIdleConnsPerHost: e.workers}}
	defer client.CloseIdleConnections()
	outs := make([]mixOutcome, len(entries))
	var wg sync.WaitGroup
	before := su.eng.Stats()
	cpu0 := cpuTime()
	start := time.Now()
	for i := range entries {
		due := start.Add(time.Duration(entries[i].TMS * float64(time.Millisecond)))
		time.Sleep(time.Until(due))
		if e.traced && due.Sub(start) >= e.window/2 {
			e.tr.on.Store(true)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			sent := time.Now()
			req := e.tr.request()
			id := e.tr.start(req, 0, "http", classNames[classes[i]])
			a, resp, err := postSelect(client, su.srv.URL, bodies[i], req, id)
			e.tr.end(id)
			outs[i] = mixOutcome{late: sent.Sub(due), lat: time.Since(due), traced: id != 0, ans: a, resp: resp, err: err}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	busy := (cpuTime() - cpu0).Seconds() / elapsed.Seconds() / float64(e.workers)
	heap := liveHeapMB()
	after := su.eng.Stats()
	e.tr.on.Store(e.traced)

	lats := make([][]float64, len(classNames))
	var hits, waits, late, untracedBig, tracedBig []float64
	var answers []answer
	inproc := map[string]*fam.Result{}
	for i, o := range outs {
		q, class := queries[i], classes[i]
		label := fmt.Sprintf("request %d (%s k=%d seed=%d)", i, q.Dataset, q.K, q.Seed)
		if o.err != nil {
			e.out.Failed++
			e.chk.fail("%s: %v", label, o.err)
			continue
		}
		lat := ms(o.lat)
		lats[class] = append(lats[class], lat)
		late = append(late, ms(o.late))
		if o.resp.Telemetry != nil {
			waits = append(waits, o.resp.Telemetry.QueueWaitMS)
		}
		if class != classFill {
			hits = append(hits, lat)
		}
		if class == classBig {
			if o.traced {
				tracedBig = append(tracedBig, lat)
			} else {
				untracedBig = append(untracedBig, lat)
			}
		}
		if o.resp.Cached != (class != classFill) {
			e.chk.fail("%s: cached=%v, want %v", label, o.resp.Cached, class != classFill)
		}
		e.chk.checkAnswer(label, o.ans, q.K, su.data[q.Dataset].N())
		answers = append(answers, o.ans)

		// The decoded HTTP answer must equal the in-process Engine answer.
		fp, err := q.Fingerprint()
		if err != nil {
			return err
		}
		want, ok := inproc[fp]
		if !ok {
			if want, _, err = su.eng.Select(e.ctx, q, fam.Exec{}); err != nil {
				return err
			}
			inproc[fp] = want
		}
		m := o.resp.Metrics
		if !reflect.DeepEqual(o.resp.Indices, want.Indices) || m.ARR != want.Metrics.ARR || m.VRR != want.Metrics.VRR ||
			m.StdDev != want.Metrics.StdDev || m.MaxRR != want.Metrics.MaxRR || !reflect.DeepEqual(m.Percentiles, want.Metrics.Percentiles) {
			e.chk.fail("%s: HTTP answer %v (arr %v) differs from the in-process Engine answer %v (arr %v)",
				label, o.resp.Indices, m.ARR, want.Indices, want.Metrics.ARR)
		}
	}
	e.out.Attempted = len(entries)
	printDigest(answers)
	// The quality set: the pre-filled fingerprints and the first fills.
	quality := append([]fam.Query(nil), hitQueries...)
	for _, i := range byClass[classFill][:min(4, len(byClass[classFill]))] {
		quality = append(quality, queries[i])
	}
	var arrs, refs []float64
	for _, q := range quality {
		res, _, err := su.eng.Select(e.ctx, q, fam.Exec{})
		if err != nil {
			return err
		}
		ref, _, err := su.eng.Select(e.ctx, reference(q), fam.Exec{})
		if err != nil {
			return err
		}
		arrs, refs = append(arrs, res.Metrics.ARR), append(refs, ref.Metrics.ARR)
	}
	e.reportQuality(arrs, refs)
	for _, i := range oneShot {
		fp, err := queries[i].Fingerprint()
		if err != nil {
			return err
		}
		if want := inproc[fp]; want != nil {
			if err := e.checkOneShot(fmt.Sprintf("request %d", i), want, queries[i], su.data[queries[i].Dataset]); err != nil {
				return err
			}
		}
	}

	if !e.traced {
		e.report("setup_s", setupS, "s", 0)
		e.report("p50_ms", median(lats[classBig]), "ms", len(lats[classBig]))
		e.report("qps", float64(len(entries)-e.out.Failed)/elapsed.Seconds(), "1/s", len(entries))
		e.report("live_heap_mb", heap, "MB", 0)
		info("hit_1e4_p50_ms", median(lats[classSmall]), "ms", len(lats[classSmall]))
		info("hit_1e6_p50_ms", median(lats[classBig]), "ms", len(lats[classBig]))
		infoTail("hit", hits)
		info("fill_p50_ms", median(lats[classFill]), "ms", len(lats[classFill]))
		infoTail("fill", lats[classFill])
		info("offered_rate", mixRate, "1/s", 0)
		info("loadgen_late_p99_ms", percentile(late, 0.99), "ms", len(late))
		info("cpu_busy_frac", busy, "ratio", 0)
		info("error_frac", float64(e.out.Failed)/float64(len(entries)), "ratio", len(entries))
		return nil
	}
	var stats engineStats
	stats.add(before, after)
	e.reportWindow(stats, waits, late, median(untracedBig), median(tracedBig))
	pe, err := e.layerProbe(su.data["mid"], fam.Query{Dataset: "mid", K: 10, Algorithm: fam.GreedyShrinkLazy, Seed: fillBase - 1}, nil)
	if err != nil {
		return err
	}
	pe.Close()
	return e.warmProbe(su.eng, hitQueries[1], hitQueries[len(hitKs)+1])
}

// tracedHandler wraps the serve handler with a server-side span, the
// child of the client span named in the request headers.
func (e *env) tracedHandler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, _ := strconv.Atoi(r.Header.Get(headerSpan))
		if parent == 0 {
			h.ServeHTTP(w, r)
			return
		}
		req, _ := strconv.Atoi(r.Header.Get(headerReq))
		id := e.tr.start(req, parent, "serve", "")
		h.ServeHTTP(w, r)
		e.tr.end(id)
	})
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
