// Package prom is the repository's one implementation of the
// Prometheus text exposition format (version 0.0.4), with zero
// external dependencies: famserve's and famrouter's GET /metrics render
// through its Writer, Histogram and Requests, and famload's /metrics
// probe reads them back with Parse.
//
// Conventions every series shares: # HELP and # TYPE are emitted once
// per family; label pairs render in sorted order, each value escaped
// exactly once (\ → \\, " → \", newline → \n) inside plain double
// quotes; integral values print without an exponent, so grep-based
// smoke checks stay stable.
package prom

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// ContentType is the Content-Type of a /metrics response.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// requestBuckets are the upper bounds (seconds) of the per-endpoint
// request latency histogram; +Inf is implicit as the final bucket.
var requestBuckets = []float64{0.001, 0.005, 0.025, 0.1, 0.25, 0.5, 1, 2.5, 10}

// Writer accumulates exposition lines.
type Writer struct {
	sb    strings.Builder
	typed map[string]bool
}

// NewWriter returns an empty exposition writer.
func NewWriter() *Writer {
	return &Writer{typed: map[string]bool{}}
}

// Family emits the # HELP and # TYPE header of a metric family; a
// family already emitted is skipped.
func (w *Writer) Family(name, kind, help string) {
	if w.typed[name] {
		return
	}
	w.typed[name] = true
	fmt.Fprintf(&w.sb, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, kind)
}

// Sample emits one sample line under a label set rendered by Labels.
func (w *Writer) Sample(name, labels string, value float64) {
	fmt.Fprintf(&w.sb, "%s%s %s\n", name, labels, formatValue(value))
}

// String returns the exposition written so far.
func (w *Writer) String() string { return w.sb.String() }

// Labels renders key/value pairs as a label set in deterministic
// (sorted) order; no pairs render as "".
func Labels(kv ...string) string {
	pairs := labelPairs(kv)
	if len(pairs) == 0 {
		return ""
	}
	return "{" + strings.Join(pairs, ",") + "}"
}

// labelPairs renders each key/value pair as key="value", sorted.
func labelPairs(kv []string) []string {
	pairs := make([]string, 0, len(kv)/2)
	for i := 0; i+1 < len(kv); i += 2 {
		pairs = append(pairs, kv[i]+`="`+escapeLabel(kv[i+1])+`"`)
	}
	sort.Strings(pairs)
	return pairs
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// formatValue renders a sample value: integral values without an
// exponent (counter deltas stay grep-able in CI smoke checks), the
// rest in Go's shortest float form.
func formatValue(v float64) string {
	if v == float64(int64(v)) {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// Histogram is a fixed-bucket accumulator. It is not safe for
// concurrent use: the owner guards it.
type Histogram struct {
	bounds  []float64
	buckets []uint64 // len(bounds)+1; last = +Inf
	sum     float64
	count   uint64
}

// NewHistogram returns an empty histogram over ascending upper bounds;
// +Inf is implicit as the final bucket.
func NewHistogram(bounds []float64) *Histogram {
	return &Histogram{bounds: bounds, buckets: make([]uint64, len(bounds)+1)}
}

// Observe accounts one value.
func (h *Histogram) Observe(v float64) {
	h.sum += v
	h.count++
	for i, bound := range h.bounds {
		if v <= bound {
			h.buckets[i]++
			return
		}
	}
	h.buckets[len(h.bounds)]++
}

// Write emits the histogram's cumulative _bucket lines (le after the
// sorted kv labels), then _sum and _count under the kv labels.
func (h *Histogram) Write(w *Writer, name string, kv ...string) {
	prefix := "{"
	if pairs := labelPairs(kv); len(pairs) > 0 {
		prefix += strings.Join(pairs, ",") + ","
	}
	cum := uint64(0)
	for i := range h.buckets {
		cum += h.buckets[i]
		le := "+Inf"
		if i < len(h.bounds) {
			le = formatValue(h.bounds[i])
		}
		w.Sample(name+"_bucket", prefix+`le="`+le+`"}`, float64(cum))
	}
	labels := Labels(kv...)
	w.Sample(name+"_sum", labels, h.sum)
	w.Sample(name+"_count", labels, float64(h.count))
}

// Requests is per-endpoint request accounting: status-code counts and
// a latency histogram per route pattern. A plain mutex over small
// maps: the critical section is a few map operations and a bucket
// scan. The zero value is ready to use.
type Requests struct {
	mu        sync.Mutex
	endpoints map[string]*endpointRequests
}

type endpointRequests struct {
	codes map[int]uint64
	dur   *Histogram
}

// Serve runs next under a status recorder, timing it on clock, and
// accounts the request under endpoint. It returns the response status
// and the request's start time and duration on clock.
func (r *Requests) Serve(endpoint string, clock func() time.Time, next http.Handler, w http.ResponseWriter, req *http.Request) (status int, start time.Time, dur time.Duration) {
	rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
	start = clock()
	next.ServeHTTP(rec, req)
	dur = clock().Sub(start)
	r.observe(endpoint, rec.status, dur.Seconds())
	return rec.status, start, dur
}

func (r *Requests) observe(endpoint string, code int, seconds float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	ep := r.endpoints[endpoint]
	if ep == nil {
		if r.endpoints == nil {
			r.endpoints = map[string]*endpointRequests{}
		}
		ep = &endpointRequests{codes: map[int]uint64{}, dur: NewHistogram(requestBuckets)}
		r.endpoints[endpoint] = ep
	}
	ep.codes[code]++
	ep.dur.Observe(seconds)
}

// Write emits, per endpoint in sorted order, the counter samples
// {code, endpoint} in code order and then the latency histogram
// {endpoint}. The caller emits both families' headers.
func (r *Requests) Write(w *Writer, counter, histogram string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	endpoints := make([]string, 0, len(r.endpoints))
	for name := range r.endpoints {
		endpoints = append(endpoints, name)
	}
	sort.Strings(endpoints)
	for _, name := range endpoints {
		ep := r.endpoints[name]
		codes := make([]int, 0, len(ep.codes))
		for code := range ep.codes {
			codes = append(codes, code)
		}
		sort.Ints(codes)
		for _, code := range codes {
			w.Sample(counter, Labels("endpoint", name, "code", strconv.Itoa(code)), float64(ep.codes[code]))
		}
		ep.dur.Write(w, histogram, "endpoint", name)
	}
}

// statusRecorder captures the response status for request accounting.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(status int) {
	r.status = status
	r.ResponseWriter.WriteHeader(status)
}

// Parse reads a Prometheus text exposition (version 0.0.4) into a flat
// sample map keyed by `name{labels}` exactly as written (no label
// reordering or unescaping), e.g.
//
//	m[`fam_sched_granted_total{class="low"}`] = 42
//
// Comment (#) and blank lines are skipped; a malformed sample line is
// an error. The parser covers what Writer emits — it is the scrape
// half of famload's /metrics probe, not a general Prometheus client.
func Parse(r io.Reader) (map[string]float64, error) {
	samples := map[string]float64{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		cut := strings.LastIndexByte(line, ' ')
		if cut <= 0 {
			return nil, fmt.Errorf("malformed metrics line %q", line)
		}
		value, err := strconv.ParseFloat(line[cut+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("malformed metrics value in %q: %w", line, err)
		}
		samples[strings.TrimSpace(line[:cut])] = value
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return samples, nil
}
