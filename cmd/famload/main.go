// Command famload is the sustained-load harness of the fam serving
// stack: it generates (or replays) an open-loop request workload,
// drives either a fam.Engine in-process or a running famserve over
// HTTP, and emits a machine-readable fitness report — throughput,
// latency percentiles, shed rate, per-priority-class breakdown with a
// Jain fairness index, and cache hit rates — as BENCH_<label>.json,
// the data points of the repository's perf trajectory.
//
// Generate a workload against an in-process engine:
//
//	famload -datasets hotels:200 -rate 200 -duration 10s -warmup 2s \
//	        -mix 'ds=hotels,k=2-8,prio=high,w=3;ds=hotels,k=5,prio=low,deadline=250' \
//	        -record trace.jsonl -label nightly
//
// Replay a recorded trace (sequential by default, so the per-request
// outcome sequence is deterministic — byte-identical across runs at a
// fixed engine configuration):
//
//	famload -datasets hotels:200 -replay trace.jsonl -outcomes out.jsonl
//
// Drive a live server instead of an in-process engine:
//
//	famload -url http://localhost:8080 -rate 100 -duration 10s -mix 'ds=hotels,k=3-6'
//
// Stripe the same workload round-robin across replicas directly — the
// no-router baseline a famrouter run is compared against:
//
//	famload -target http://localhost:8081,http://localhost:8082,http://localhost:8083 \
//	        -rate 100 -duration 10s -mix 'ds=hotels,k=3-6'
//
// Arrival processes: poisson (default), gamma (-gamma-shape tunes
// burstiness; < 1 burstier than poisson), uniform (a metronome).
// Everything is seeded: equal -seed values generate identical traces.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	fam "github.com/regretlab/fam"
	"github.com/regretlab/fam/internal/load"
	"github.com/regretlab/fam/internal/prom"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "famload:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("famload", flag.ContinueOnError)
	var (
		url        = fs.String("url", "", "drive a running famserve at this base URL instead of an in-process engine")
		targets    = fs.String("target", "", "comma-separated base URLs to stripe requests across round-robin (the direct-to-replicas baseline; one URL behaves like -url)")
		specs      = fs.String("datasets", "hotels:200", "in-process engine dataset specs (same syntax as famserve -datasets)")
		workers    = fs.Int("workers", 0, "in-process engine worker-pool size (0 = all CPUs)")
		maxQueue   = fs.Int("max-queue", 0, "in-process engine server-side admission bound applied to requests without their own max_queue (0 = none)")
		rate       = fs.Float64("rate", 50, "mean arrival rate in requests/second")
		duration   = fs.Duration("duration", 10*time.Second, "measurement window length")
		warmup     = fs.Duration("warmup", 0, "warmup window prepended to the measurement window: requests run but are excluded from the report")
		arrival    = fs.String("arrival", load.ArrivalPoisson, "arrival process: poisson|gamma|uniform")
		gammaShape = fs.Float64("gamma-shape", 0.5, "gamma arrival shape (<1 burstier than poisson, >1 smoother)")
		seed       = fs.Uint64("seed", 1, "workload generation seed; equal seeds generate identical traces")
		mix        = fs.String("mix", "ds=hotels,k=2-6", "workload mix: semicolon-separated templates of key=value pairs (ds, k, seed, algo, prio, deadline, maxq, n, eps, sigma, w)")
		record     = fs.String("record", "", "write the generated trace to this JSONL file")
		replay     = fs.String("replay", "", "replay this JSONL trace instead of generating a workload")
		paced      = fs.String("paced", "auto", "open-loop pacing: on (fire at trace offsets), off (sequential, deterministic outcomes), auto (on for generated runs, off for replays)")
		speed      = fs.Float64("speed", 1, "paced-replay time scale: 2 replays twice as fast")
		label      = fs.String("label", "run", "report label; the default output file is BENCH_<label>.json")
		outPath    = fs.String("out", "", "report output path (default BENCH_<label>.json)")
		outcomes   = fs.String("outcomes", "", "also write the deterministic per-request outcome sequence (JSONL) to this path")
	)
	fs.SetOutput(io.Discard)
	if err := fs.Parse(args); err != nil {
		return err
	}

	// Assemble the trace: replayed verbatim, or generated from the mix.
	var trace []load.TraceEntry
	var workload *load.Spec
	generated := *replay == ""
	if generated {
		templates, err := load.ParseMix(*mix)
		if err != nil {
			return err
		}
		spec := load.Spec{
			Rate:       *rate,
			Duration:   *warmup + *duration,
			Arrival:    *arrival,
			GammaShape: *gammaShape,
			Seed:       *seed,
			Templates:  templates,
		}
		trace, err = spec.Generate()
		if err != nil {
			return err
		}
		workload = &spec
	} else {
		f, err := os.Open(*replay)
		if err != nil {
			return err
		}
		trace, err = load.ReadTrace(f)
		f.Close()
		if err != nil {
			return err
		}
	}
	if len(trace) == 0 {
		return fmt.Errorf("empty trace (rate %g over %s generated nothing)", *rate, *duration)
	}
	if *record != "" {
		f, err := os.Create(*record)
		if err != nil {
			return err
		}
		if err := load.WriteTrace(f, trace); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}

	cfg := load.RunConfig{Warmup: *warmup, Speed: *speed}
	switch *paced {
	case "on":
		cfg.Paced = true
	case "off":
		cfg.Paced = false
	case "auto":
		// Generated runs measure sustained load (paced); replays default
		// to the deterministic sequential mode.
		cfg.Paced = generated
	default:
		return fmt.Errorf("bad -paced %q (want on|off|auto)", *paced)
	}

	// Build the target and the stats probes around the run. -target is
	// the multi-URL generalization of -url: one URL behaves identically,
	// several stripe the workload round-robin (the direct-to-replicas
	// baseline a through-router run is compared against).
	if *targets != "" && *url != "" {
		return fmt.Errorf("-url and -target are mutually exclusive (use -target alone)")
	}
	var urls []string
	if *targets != "" {
		for _, u := range strings.Split(*targets, ",") {
			if u = strings.TrimSpace(u); u != "" {
				urls = append(urls, u)
			}
		}
		if len(urls) == 0 {
			return fmt.Errorf("-target lists no URLs")
		}
	} else if *url != "" {
		urls = []string{*url}
	}
	var target load.Target
	mode := "engine"
	statsBefore, statsAfter := fam.EngineStats{}, fam.EngineStats{}
	haveStats := false
	if len(urls) > 0 {
		mode = "http"
		if len(urls) == 1 {
			target = load.HTTPTarget{BaseURL: urls[0]}
			// Engine-stat deltas only make sense against one server: a
			// striped run spans several engines' counters.
			if s, err := fetchStats(ctx, urls[0]); err == nil {
				statsBefore, haveStats = s, true
			}
		} else {
			httpTargets := make([]load.Target, len(urls))
			for i, u := range urls {
				httpTargets[i] = load.HTTPTarget{BaseURL: u}
			}
			mt, err := load.NewMultiTarget(httpTargets...)
			if err != nil {
				return err
			}
			target = mt
		}
	} else {
		engine, infos, err := load.BuildEngine(fam.EngineConfig{Workers: *workers}, *specs, 0)
		if err != nil {
			return err
		}
		defer engine.Close()
		for _, info := range infos {
			fmt.Fprintf(out, "dataset %q: n=%d dim=%d dist=%s\n", info.Name, info.N, info.Dim, info.Distribution)
		}
		if *maxQueue > 0 {
			target = maxQueueTarget{inner: load.EngineTarget{Engine: engine}, maxQueue: *maxQueue}
		} else {
			target = load.EngineTarget{Engine: engine}
		}
		statsBefore, haveStats = engine.Stats(), true
	}

	results, wall, err := load.Run(ctx, target, trace, cfg)
	if err != nil {
		return err
	}
	if len(urls) == 1 {
		if s, err := fetchStats(ctx, urls[0]); err == nil && haveStats {
			statsAfter = s
		} else {
			haveStats = false
		}
	} else if et, ok := target.(load.EngineTarget); ok {
		statsAfter = et.Engine.Stats()
	} else if mt, ok := target.(maxQueueTarget); ok {
		statsAfter = mt.inner.Engine.Stats()
	}

	report := load.BuildReport(*label, mode, results, wall, *warmup, cfg)
	report.Workload = workload
	if haveStats {
		rates := load.CacheRatesFrom(statsBefore, statsAfter)
		report.Caches = &rates
		sched := load.SchedRatesFrom(statsBefore, statsAfter)
		report.Sched = &sched
	}

	path := *outPath
	if path == "" {
		path = "BENCH_" + sanitizeLabel(*label) + ".json"
	}
	blob, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
		return err
	}
	if *outcomes != "" {
		f, err := os.Create(*outcomes)
		if err != nil {
			return err
		}
		if err := load.WriteOutcomes(f, results); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}

	fmt.Fprintf(out,
		"%s: %d offered, %d completed (%.1f rps), %d shed (%.1f%%), %d errors; p50 %.1fms p99 %.1fms; jain %.3f; report %s\n",
		*label, report.Offered, report.Completed, report.ThroughputRPS,
		report.Shed, report.ShedRate*100, report.Errors,
		report.Latency.P50MS, report.Latency.P99MS, report.JainIndex, path)
	return nil
}

// maxQueueTarget applies a harness-side default admission bound to
// requests that do not set their own max_queue — the in-process
// equivalent of famserve's -max-queue handler default.
type maxQueueTarget struct {
	inner    load.EngineTarget
	maxQueue int
}

func (t maxQueueTarget) Do(ctx context.Context, req load.Request) load.Outcome {
	if req.MaxQueue == 0 {
		req.MaxQueue = t.maxQueue
	}
	return t.inner.Do(ctx, req)
}

// fetchStats reads the engine counters from a live famserve: the
// /metrics exposition first (the per-class scheduler series the
// report's sched deltas need), falling back to /v2/stats against
// servers predating the metrics endpoint.
func fetchStats(ctx context.Context, baseURL string) (fam.EngineStats, error) {
	if s, err := fetchMetrics(ctx, baseURL); err == nil {
		return s, nil
	}
	return fetchEngineStats(ctx, baseURL)
}

// fetchMetrics scrapes GET /metrics and reconstructs the stats view
// the report deltas read.
func fetchMetrics(ctx context.Context, baseURL string) (fam.EngineStats, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		strings.TrimRight(baseURL, "/")+"/metrics", nil)
	if err != nil {
		return fam.EngineStats{}, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return fam.EngineStats{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fam.EngineStats{}, fmt.Errorf("metrics status %d", resp.StatusCode)
	}
	samples, err := prom.Parse(resp.Body)
	if err != nil {
		return fam.EngineStats{}, err
	}
	return load.EngineStatsFromMetrics(samples), nil
}

// fetchEngineStats reads the engine counters from a live famserve.
func fetchEngineStats(ctx context.Context, baseURL string) (fam.EngineStats, error) {
	var body struct {
		Engine fam.EngineStats `json:"engine"`
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		strings.TrimRight(baseURL, "/")+"/v2/stats", nil)
	if err != nil {
		return fam.EngineStats{}, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return fam.EngineStats{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fam.EngineStats{}, fmt.Errorf("stats status %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return fam.EngineStats{}, err
	}
	return body.Engine, nil
}

// sanitizeLabel keeps report filenames shell-friendly.
func sanitizeLabel(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_', r == '.':
			return r
		default:
			return '_'
		}
	}, s)
}
