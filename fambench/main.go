// Command fambench is the repository benchmark. It runs one seeded
// workload against the public fam API (and the serve HTTP surface),
// checks every answer, and prints its metrics: the end-to-end metrics
// with --trace 0, the per-layer metrics of a traced run with --trace 1.
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Workloads, metrics and the layer-to-end-to-end predictions are
// described in README.md next to this file.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"github.com/regretlab/fam"
	"github.com/regretlab/fam/internal/rng"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// output is the final JSON line.
type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// env is the state one workload run shares with its helpers.
type env struct {
	ctx     context.Context
	window  time.Duration
	traced  bool
	workers int
	dist    fam.Distribution
	g       *rng.RNG // workload stream: every generated input derives from it

	tr  *tracer
	chk checker
	out output
}

// report records a metric for the final JSON line and prints it on a
// readable line, with the sample count when it has one.
func (e *env) report(name string, value float64, unit string, samples int) {
	e.out.Metrics[name] = metric{Value: value, Unit: unit}
	info(name, value, unit, samples)
}

// info prints a number that is shown but not part of the JSON metrics.
func info(name string, value float64, unit string, samples int) {
	if samples > 0 {
		fmt.Printf("%-28s %14.6g %-6s n=%d\n", name, value, unit, samples)
	} else {
		fmt.Printf("%-28s %14.6g %s\n", name, value, unit)
	}
}

var workloads = map[string]func(*env) error{
	"cold_1m":     coldOneM,
	"solve_sweep": solveSweep,
	"serve_mix":   serveMix,
}

func main() {
	name := flag.String("workload", "", "workload: cold_1m, solve_sweep or serve_mix")
	seed := flag.Uint64("seed", 1, "workload seed; every input is generated from it")
	seconds := flag.Int("seconds", 25, "length of the measured window in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer variant")
	flag.Parse()
	run, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: fambench --workload cold_1m|solve_sweep|serve_mix --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	dist, err := fam.UniformLinear(4)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fambench:", err)
		os.Exit(1)
	}
	e := &env{
		ctx:     context.Background(),
		window:  time.Duration(*seconds) * time.Second,
		traced:  *trace == 1,
		workers: runtime.NumCPU(),
		dist:    dist,
		g:       rng.New(*seed),
		tr:      &tracer{t0: time.Now()},
		out:     output{Metrics: map[string]metric{}},
	}
	fmt.Printf("workload %s seed %d seconds %d trace %d workers %d\n", *name, *seed, *seconds, *trace, e.workers)
	if err := run(e); err != nil {
		fmt.Fprintf(os.Stderr, "fambench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	if e.traced {
		path := fmt.Sprintf(".bench_build/spans-%s-seed%d.jsonl", *name, *seed)
		if err := e.tr.write(path); err != nil {
			fmt.Fprintln(os.Stderr, "fambench: writing spans:", err)
			os.Exit(1)
		}
		fmt.Printf("spans written to %s (%d spans)\n", path, len(e.tr.spans))
	}
	e.out.Correct = e.chk.ok()
	for _, msg := range e.chk.failures {
		fmt.Fprintln(os.Stderr, "check failed:", msg)
	}
	line, err := json.Marshal(e.out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fambench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !e.out.Correct {
		os.Exit(1)
	}
}

// percentile returns the nearest-rank p-quantile (0 < p < 1) of xs; the
// median (p = 0.5) averages the two middle values of an even sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if p == 0.5 && len(s)%2 == 0 {
		return (s[len(s)/2-1] + s[len(s)/2]) / 2
	}
	i := int(float64(len(s))*p+0.999999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// tailLevel is the highest of p99, p98, p95, p90 and p75 that leaves at
// least ten of n samples above it, or the median when none does.
func tailLevel(n int) float64 {
	for _, p := range []float64{0.99, 0.98, 0.95, 0.9, 0.75} {
		if float64(n)*(1-p) >= 10 {
			return p
		}
	}
	return 0.5
}

// infoTail prints <name>_p<level>_ms, the highest percentile of lat
// the sample supports.
func infoTail(name string, lat []float64) {
	p := tailLevel(len(lat))
	info(fmt.Sprintf("%s_p%g_ms", name, p*100), percentile(lat, p), "ms", len(lat))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// liveHeapMB is the live heap after a full collection, in MB.
func liveHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// setupTimes runs setup n times and returns the last result and the
// median set-up time in seconds. Earlier results are released with drop
// before the next attempt.
func setupTimes[T any](n int, setup func() (T, error), drop func(T)) (T, float64, error) {
	var last T
	var times []float64
	for i := 0; i < n; i++ {
		if i > 0 {
			drop(last)
			runtime.GC()
		}
		start := time.Now()
		v, err := setup()
		if err != nil {
			return last, 0, err
		}
		times = append(times, time.Since(start).Seconds())
		last = v
	}
	return last, median(times), nil
}
