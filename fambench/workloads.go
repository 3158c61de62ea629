package main

import (
	"fmt"
	"time"

	"github.com/regretlab/fam"
	"github.com/regretlab/fam/internal/par"
)

// coldMin is the number of cold queries every cold_1m run makes; its
// digest and arr_ratio cover exactly these, so they do not depend on
// how many more queries the window fits.
const coldMin = 4

// coldOneM is the cold_1m workload: every query registers the 10⁶-point
// independent dataset on a fresh Engine and issues one cold Select
// (greedy-shrink-lazy, K=10, coreset on). One client, closed loop.
func coldOneM(e *env) error {
	dsSeed := e.g.Uint64()
	oneShot := e.g.Perm(coldMin)[:2]
	ds, setupS, err := setupTimes(7, func() (*fam.Dataset, error) {
		return fam.Synthetic(1_000_000, 4, fam.Independent, dsSeed)
	}, func(*fam.Dataset) {})
	if err != nil {
		return err
	}
	var pool *par.Pool
	if e.traced {
		pool = par.NewPool(e.workers)
		defer pool.Close()
	}

	var (
		lat, untraced, traced, waits, late []float64
		glue                               []glueSample
		queries                            []fam.Query
		results                            []*fam.Result
		stats                              engineStats
		last                               *fam.Engine
	)
	start := time.Now()
	prev := start
	for i := 0; i < coldMin || time.Since(start) < e.window; i++ {
		q := fam.Query{Dataset: "pts", K: 10, Algorithm: fam.GreedyShrinkLazy, Coreset: true, Seed: e.g.Uint64()}
		// The traced run times its first half untraced and replays every
		// query of the second half layer by layer.
		replay := e.traced && time.Since(start) >= e.window/2
		e.tr.on.Store(replay)
		var p *par.Pool
		if replay {
			p = pool
		}
		late = append(late, ms(time.Since(prev)))
		if last != nil {
			last.Close()
		}
		c, err := e.coldQuery(ds, q, p)
		if err != nil {
			return fmt.Errorf("cold query %d: %w", i, err)
		}
		prev = time.Now()
		last = c.eng
		stats.add(fam.EngineStats{}, c.eng.Stats())
		lat = append(lat, ms(c.dur))
		waits = append(waits, ms(c.tel.QueueWait))
		if replay {
			traced = append(traced, ms(c.dur))
			glue = append(glue, c.glueSample())
		} else {
			untraced = append(untraced, ms(c.dur))
		}
		if c.res.Cached {
			e.chk.fail("cold query %d was answered from the result cache", i)
		}
		e.chk.checkAnswer(fmt.Sprintf("cold query %d", i), answer{c.res.Indices, c.res.Metrics.ARR}, q.K, ds.N())
		if i < coldMin {
			queries, results = append(queries, q), append(results, c.res)
		}
	}
	elapsed := time.Since(start)
	heap := liveHeapMB()
	e.tr.on.Store(e.traced)
	e.out.Attempted = len(lat)
	defer last.Close()

	answers := make([]answer, len(results))
	arrs, refs := make([]float64, len(results)), make([]float64, len(results))
	for i, r := range results {
		answers[i] = answer{r.Indices, r.Metrics.ARR}
		ref, _, err := last.Select(e.ctx, reference(queries[i]), fam.Exec{})
		if err != nil {
			return err
		}
		arrs[i], refs[i] = r.Metrics.ARR, ref.Metrics.ARR
	}
	printDigest(answers)
	e.reportQuality(arrs, refs)
	for _, i := range oneShot {
		if err := e.checkOneShot(fmt.Sprintf("cold query %d", i), results[i], queries[i], ds); err != nil {
			return err
		}
	}
	if !e.traced {
		e.report("setup_s", setupS, "s", 0)
		e.report("p50_ms", median(lat), "ms", len(lat))
		e.report("qps", float64(len(lat))/elapsed.Seconds(), "1/s", len(lat))
		e.report("live_heap_mb", heap, "MB", 0)
		info("cold_select_p50_ms", median(lat), "ms", len(lat))
		infoTail("cold_select", lat)
		info("error_frac", 0, "ratio", len(lat))
		return nil
	}
	e.reportWindow(stats, waits, late, median(untraced), median(traced))
	q := fam.Query{Dataset: "pts", K: 10, Algorithm: fam.GreedyShrinkLazy, Coreset: true, Seed: e.g.Uint64()}
	pe, err := e.layerProbe(ds, q, glue)
	if err != nil {
		return err
	}
	defer pe.Close()
	hit4, err := e.registerAux(pe, "aux1e4", 10_000, q)
	if err != nil {
		return err
	}
	return e.warmProbe(pe, hit4, q)
}

// checkOneShot verifies an Engine answer against the one-shot
// fam.Select of the same query on the same data (a separate
// preprocessing code path).
func (e *env) checkOneShot(label string, got *fam.Result, q fam.Query, ds *fam.Dataset) error {
	q.Dataset, q.Data, q.Dist = "", ds, e.dist
	want, _, err := fam.Select(e.ctx, q, fam.Exec{})
	if err != nil {
		return fmt.Errorf("%s: one-shot Select: %w", label, err)
	}
	e.chk.sameResult(label, got, want)
	return nil
}

// registerAux registers a generated independent dataset of n points on
// eng for the warm-hit probes and returns q retargeted at it.
func (e *env) registerAux(eng *fam.Engine, name string, n int, q fam.Query) (fam.Query, error) {
	ds, err := fam.Synthetic(n, 4, fam.Independent, e.g.Uint64())
	if err != nil {
		return q, err
	}
	if err := eng.Register(name, ds, e.dist); err != nil {
		return q, err
	}
	q.Dataset = name
	return q, nil
}

// sweepAlgos are the solvers solve_sweep cycles through with every K in
// 2..50.
var sweepAlgos = []fam.Algorithm{fam.GreedyShrink, fam.GreedyShrinkLazy, fam.GreedyAdd}

// sweepPairs is the length of one solve_sweep round.
var sweepPairs = 49 * len(sweepAlgos)

// sweepOrder returns the next round of solve_sweep: every (K, algorithm)
// pair once. The K values come in seeded order, each with its three
// algorithms in seeded order, so every prefix of a round has an even
// algorithm mix; the round never starts with the previous round's last
// pair.
func (e *env) sweepOrder(prev fam.Query) []fam.Query {
	var round []fam.Query
	for _, k := range e.g.Perm(49) {
		for _, a := range e.g.Perm(len(sweepAlgos)) {
			round = append(round, fam.Query{Dataset: "pts", K: 2 + k, Algorithm: sweepAlgos[a], Seed: prev.Seed})
		}
	}
	if round[0].K == prev.K && round[0].Algorithm == prev.Algorithm {
		round[0], round[1] = round[1], round[0]
	}
	return round
}

// solveSweep is the solve_sweep workload: preprocessing is warm (the
// 10⁵-point anticorrelated dataset's instance is filled in set-up) and
// every query is a distinct (K, algorithm) pair that misses the result
// cache. One client, closed loop, at least one full round of pairs.
func solveSweep(e *env) error {
	dsSeed := e.g.Uint64()
	// K=1 lies outside the sweep, so the fill's own result never
	// answers a sweep query.
	fill := fam.Query{Dataset: "pts", K: 1, Algorithm: fam.GreedyShrinkLazy, Seed: e.g.Uint64()}
	oneShot := e.g.Perm(sweepPairs)[:3]
	type sweepSetup struct {
		ds  *fam.Dataset
		eng *fam.Engine
	}
	su, setupS, err := setupTimes(3, func() (sweepSetup, error) {
		ds, err := fam.Synthetic(100_000, 4, fam.Anticorrelated, dsSeed)
		if err != nil {
			return sweepSetup{}, err
		}
		// A one-entry result cache: the sequence never repeats a pair
		// back to back, so every query misses it.
		eng := fam.NewEngine(fam.EngineConfig{Workers: e.workers, ResultCacheSize: 1})
		if err := eng.Register("pts", ds, e.dist); err != nil {
			eng.Close()
			return sweepSetup{}, err
		}
		if _, _, err := eng.Select(e.ctx, fill, fam.Exec{}); err != nil {
			eng.Close()
			return sweepSetup{}, err
		}
		return sweepSetup{ds, eng}, nil
	}, func(s sweepSetup) { s.eng.Close() })
	if err != nil {
		return err
	}
	defer su.eng.Close()

	var st *prepState
	var pool *par.Pool
	if e.traced {
		pool = par.NewPool(e.workers)
		defer pool.Close()
		e.tr.on.Store(true)
		if st, err = e.replayPrepare(e.tr.request(), 0, pool, su.ds, fill); err != nil {
			return err
		}
	}

	var (
		lat, untraced, traced, waits, late []float64
		first                              []*fam.Result
		order                              []fam.Query
	)
	before := su.eng.Stats()
	start := time.Now()
	prev := start
	for i := 0; i < sweepPairs || time.Since(start) < e.window; i++ {
		if i == len(order) {
			last := fill
			if i > 0 {
				last = order[i-1]
			}
			order = append(order, e.sweepOrder(last)...)
		}
		q := order[i]
		replay := e.traced && time.Since(start) >= e.window/2
		e.tr.on.Store(replay)
		late = append(late, ms(time.Since(prev)))
		req := e.tr.request()
		id := e.tr.start(req, 0, "engine.select", q.Algorithm.String())
		t0 := time.Now()
		res, tel, err := su.eng.Select(e.ctx, q, fam.Exec{})
		d := time.Since(t0)
		e.tr.end(id)
		if err != nil {
			return fmt.Errorf("sweep query %d (k=%d %s): %w", i, q.K, q.Algorithm, err)
		}
		lat = append(lat, ms(d))
		waits = append(waits, ms(tel.QueueWait))
		if res.Cached {
			e.chk.fail("sweep query %d (k=%d %s) hit the result cache", i, q.K, q.Algorithm)
		}
		e.chk.checkAnswer(fmt.Sprintf("sweep query %d", i), answer{res.Indices, res.Metrics.ARR}, q.K, su.ds.N())
		if i < sweepPairs {
			first = append(first, res)
		}
		if replay {
			traced = append(traced, ms(d))
			got, _, err := e.replaySolve(req, 0, st, q)
			if err != nil {
				return err
			}
			e.sameAnswer(fmt.Sprintf("sweep query %d", i), res, got)
		} else {
			untraced = append(untraced, ms(d))
		}
		prev = time.Now()
	}
	elapsed := time.Since(start)
	heap := liveHeapMB()
	after := su.eng.Stats()
	e.tr.on.Store(e.traced)
	e.out.Attempted = len(lat)

	answers := make([]answer, len(first))
	shrink := map[int]float64{} // K -> ARR of the round's greedy-shrink answer
	for i, r := range first {
		answers[i] = answer{r.Indices, r.Metrics.ARR}
		if order[i].Algorithm == fam.GreedyShrink {
			shrink[order[i].K] = r.Metrics.ARR
		}
	}
	printDigest(answers)
	arrs, refs := make([]float64, len(first)), make([]float64, len(first))
	for i, r := range first {
		arrs[i], refs[i] = r.Metrics.ARR, shrink[order[i].K]
	}
	e.reportQuality(arrs, refs)
	for _, i := range oneShot {
		if err := e.checkOneShot(fmt.Sprintf("sweep query %d", i), first[i], order[i], su.ds); err != nil {
			return err
		}
	}
	if !e.traced {
		e.report("setup_s", setupS, "s", 0)
		e.report("p50_ms", median(lat), "ms", len(lat))
		e.report("qps", float64(len(lat))/elapsed.Seconds(), "1/s", len(lat))
		e.report("live_heap_mb", heap, "MB", 0)
		info("sweep_p50_ms", median(lat), "ms", len(lat))
		info("sweep_p90_ms", percentile(lat, 0.9), "ms", len(lat))
		infoTail("sweep", lat)
		info("error_frac", 0, "ratio", len(lat))
		return nil
	}
	var stats engineStats
	stats.add(before, after)
	e.reportWindow(stats, waits, late, median(untraced), median(traced))
	q := fill
	q.K = 10
	pe, err := e.layerProbe(su.ds, q, nil)
	if err != nil {
		return err
	}
	defer pe.Close()
	hit4, err := e.registerAux(pe, "aux1e4", 10_000, q)
	if err != nil {
		return err
	}
	hit6, err := e.registerAux(pe, "aux1e6", 1_000_000, q)
	if err != nil {
		return err
	}
	return e.warmProbe(pe, hit4, hit6)
}
