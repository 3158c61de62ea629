package serve

import (
	"context"
	"encoding/json"
	"io"
	"sync"
	"time"

	"github.com/regretlab/fam/internal/obs"
)

// Tracing headers. A client arms tracing for its request by sending
// either header: X-Fam-Trace carries a bare 32-hex trace ID to adopt
// (any other non-empty value arms tracing under a fresh ID), and
// traceparent is the W3C form, whose span ID becomes the remote parent
// of the local request span. The server echoes both headers (with the
// resolved trace ID and the local root span) on every traced response.
const (
	HeaderTrace       = "X-Fam-Trace"
	HeaderTraceparent = "traceparent"
)

// reqIDKey carries the per-request ID through the request context so
// error envelopes and log lines agree on it.
type reqIDKey struct{}

func withRequestID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, reqIDKey{}, id)
}

func requestIDFrom(ctx context.Context) string {
	id, _ := ctx.Value(reqIDKey{}).(string)
	return id
}

// isQueryPattern reports whether the route runs engine queries — the
// endpoints slow-query capture and trace sampling apply to.
func isQueryPattern(pattern string) bool {
	switch pattern {
	case "POST /v1/select", "POST /v1/evaluate", "POST /v2/select":
		return true
	}
	return false
}

// traceLogEntry is one JSONL line of the span-tree trace log: request
// identity and outcome plus the finished span tree.
type traceLogEntry struct {
	Time      time.Time     `json:"time"`
	TraceID   string        `json:"trace_id"`
	RequestID string        `json:"request_id"`
	Endpoint  string        `json:"endpoint"`
	Status    int           `json:"status"`
	DurMS     float64       `json:"dur_ms"`
	Slow      bool          `json:"slow,omitempty"`
	Sampled   bool          `json:"sampled,omitempty"`
	Spans     *obs.JSONSpan `json:"spans,omitempty"`
}

// traceSink serializes trace-log writes: one marshaled line per entry,
// never interleaved, over any io.Writer.
type traceSink struct {
	mu sync.Mutex
	w  io.Writer
}

func (s *traceSink) write(e traceLogEntry) {
	b, err := json.Marshal(e)
	if err != nil {
		return
	}
	b = append(b, '\n')
	s.mu.Lock()
	_, _ = s.w.Write(b)
	s.mu.Unlock()
}
