// Package obs is the zero-dependency span-tree tracer behind per-query
// observability: a per-request Collector assembles the spans every layer
// of a query opens (serve request handling, engine admission, cache
// lookups and singleflight fills, the select stages, solver rounds) into
// one finished tree, carried across layers by context.
//
// Design constraints, in order:
//
//   - Tracing off must cost nothing. A context without a collector makes
//     Start return (ctx, nil), and every Span method is a nil-receiver
//     no-op — no allocations, no formatting, no locking on the disabled
//     path (obs_test proves 0 allocs/op).
//   - Span structure must be deterministic. For a fixed (Query, Exec)
//     the tree's names, nesting, counts, and attributes are identical at
//     any worker count — only durations (and the pool-grant events,
//     which exist per granted ticket) vary. Node.Shape renders exactly
//     the deterministic part, so trees are golden-testable.
//   - Trace identity must cross processes. Trace IDs are 32 lowercase
//     hex characters and span IDs 16, matching the W3C traceparent
//     format, so the serve layer can fold an incoming traceparent /
//     X-Fam-Trace header into the collector and echo it outward — the
//     seam a multi-node router needs.
package obs

import (
	"context"
	"fmt"
	"math/rand/v2"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Attr is one key=value annotation on a span. Values are preformatted
// strings: attrs are part of the deterministic tree shape, so anything
// timing-dependent belongs in an Event instead.
type Attr struct {
	Key   string
	Value string
}

// Event is one timed occurrence inside a span — e.g. one pool helper
// grant with its enqueue-to-grant wait. Events may be appended by
// helper goroutines concurrently with the span owner, and they are
// excluded from Node.Shape: their count and durations depend on
// scheduling timing (a ticket that went stale grants no event).
type Event struct {
	Name string
	Dur  time.Duration
}

// Span is one timed operation in a trace. TraceID/SpanID/Parent link it
// into the tree; Attrs annotate it. The creating goroutine owns Name,
// Start, Dur, and Attrs (set attrs before End); Event is safe to call
// from any goroutine.
type Span struct {
	TraceID string
	SpanID  string
	Parent  string
	Name    string
	Start   time.Time
	Dur     time.Duration
	Attrs   []Attr

	col    *Collector
	mu     sync.Mutex
	events []Event
	ended  bool
}

// Collector gathers the finished spans of one request. All methods are
// safe for concurrent use; span IDs are a per-collector counter, so a
// single-threaded request produces identical IDs run after run.
type Collector struct {
	traceID string
	remote  string // parent span id from an incoming traceparent
	seq     atomic.Uint64

	mu   sync.Mutex
	done []*Span
}

// NewCollector returns a collector for one request. An empty traceID
// (or an invalid one) draws a fresh random 32-hex ID; a valid incoming
// ID is adopted verbatim so the trace continues across processes.
func NewCollector(traceID string) *Collector {
	if !ValidTraceID(traceID) {
		traceID = NewTraceID()
	}
	return &Collector{traceID: traceID}
}

// SetRemoteParent records the caller's span ID from an incoming
// traceparent header: root spans of this collector carry it as their
// Parent, linking the local tree under the remote caller's span.
func (c *Collector) SetRemoteParent(spanID string) {
	if c != nil {
		c.remote = spanID
	}
}

// TraceID returns the collector's trace ID ("" for a nil collector).
func (c *Collector) TraceID() string {
	if c == nil {
		return ""
	}
	return c.traceID
}

// StartSpan opens a root-level span (Parent = the remote caller's span
// when one was set). Nil-safe: a nil collector returns a nil span.
func (c *Collector) StartSpan(name string) *Span {
	if c == nil {
		return nil
	}
	return &Span{
		TraceID: c.traceID,
		SpanID:  c.nextSpanID(),
		Parent:  c.remote,
		Name:    name,
		Start:   time.Now(),
		col:     c,
	}
}

func (c *Collector) nextSpanID() string {
	return fmt.Sprintf("%016x", c.seq.Add(1))
}

// StartChild opens a child span under s. Nil-safe: children of a nil
// span are nil, so instrumented code needs no enabled-check.
func (s *Span) StartChild(name string) *Span {
	if s == nil {
		return nil
	}
	return &Span{
		TraceID: s.TraceID,
		SpanID:  s.col.nextSpanID(),
		Parent:  s.SpanID,
		Name:    name,
		Start:   time.Now(),
		col:     s.col,
	}
}

// End fixes the span's duration and hands it to the collector. Only
// ended spans appear in Tree/Node/Spans — a span abandoned mid-flight
// (e.g. a detached fill still running at sink time) is simply absent.
// Idempotent (second and later calls are no-ops, so "explicit End to
// read the tree + deferred End for error paths" is safe) and nil-safe.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	s.mu.Unlock()
	s.Dur = time.Since(s.Start)
	s.col.mu.Lock()
	s.col.done = append(s.col.done, s)
	s.col.mu.Unlock()
}

// SetAttr annotates the span. Attrs join the deterministic tree shape:
// only values that are pure functions of (Query, Exec) belong here.
// Nil-safe; call from the owning goroutine before End.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.Attrs = append(s.Attrs, Attr{Key: key, Value: value})
}

// SetAttrInt annotates the span with an integer value. The nil-check
// runs before any formatting, keeping the disabled path allocation-free.
func (s *Span) SetAttrInt(key string, value int) {
	if s == nil {
		return
	}
	s.Attrs = append(s.Attrs, Attr{Key: key, Value: strconv.Itoa(value)})
}

// SetAttrBool annotates the span with a boolean value. Nil-safe.
func (s *Span) SetAttrBool(key string, value bool) {
	if s == nil {
		return
	}
	s.Attrs = append(s.Attrs, Attr{Key: key, Value: strconv.FormatBool(value)})
}

// Event appends a timed event. Safe from any goroutine (pool helpers
// report their grant waits onto the span of the query that enqueued
// them); nil-safe.
func (s *Span) Event(name string, d time.Duration) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.events = append(s.events, Event{Name: name, Dur: d})
	s.mu.Unlock()
}

// Events returns a snapshot of the span's events. Nil-safe.
func (s *Span) Events() []Event {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Event(nil), s.events...)
}

// Collector returns the span's collector (nil for a nil span).
func (s *Span) Collector() *Collector {
	if s == nil {
		return nil
	}
	return s.col
}

// Spans returns a snapshot of the finished spans in End order.
func (c *Collector) Spans() []*Span {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]*Span(nil), c.done...)
}

// SpanCount returns the number of finished spans.
func (c *Collector) SpanCount() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.done)
}

// Node is one assembled position in the finished span tree. Children
// are ordered by span ID (creation order for single-threaded requests).
type Node struct {
	Span     *Span
	Children []*Node
}

// assemble builds the id→node index over the finished spans. Caller
// must not hold c.mu.
func (c *Collector) assemble() (map[string]*Node, []*Node) {
	spans := c.Spans()
	nodes := make(map[string]*Node, len(spans))
	for _, sp := range spans {
		nodes[sp.SpanID] = &Node{Span: sp}
	}
	var roots []*Node
	for _, sp := range spans {
		n := nodes[sp.SpanID]
		if parent, ok := nodes[sp.Parent]; ok && sp.Parent != sp.SpanID {
			parent.Children = append(parent.Children, n)
		} else {
			// No locally-collected parent: a root (possibly continuing a
			// remote caller's span).
			roots = append(roots, n)
		}
	}
	order := func(ns []*Node) {
		sort.Slice(ns, func(i, j int) bool { return ns[i].Span.SpanID < ns[j].Span.SpanID })
	}
	for _, n := range nodes {
		order(n.Children)
	}
	order(roots)
	return nodes, roots
}

// Tree assembles the finished spans and returns the first root (nil
// when nothing finished). The usual request has exactly one root — the
// serve layer's http.request span, or engine.select when the library
// is traced directly.
func (c *Collector) Tree() *Node {
	if c == nil {
		return nil
	}
	_, roots := c.assemble()
	if len(roots) == 0 {
		return nil
	}
	return roots[0]
}

// Node assembles the finished spans and returns the subtree rooted at
// spanID (nil when that span has not ended). The engine uses it to
// attach its own subtree to Telemetry while the serve layer's enclosing
// request span is still open.
func (c *Collector) Node(spanID string) *Node {
	if c == nil {
		return nil
	}
	nodes, _ := c.assemble()
	return nodes[spanID]
}

// Shape renders the deterministic structure of the subtree: one line
// per span — the indented name plus its attrs in key=value form — with
// children ordered by their own rendered shape (span ID as the final
// tie-break, which only orders identical siblings). Durations, span
// IDs, and events are excluded, so Shape is identical run after run
// and at any worker count for a fixed (Query, Exec): the
// golden-testable view of a trace.
func (n *Node) Shape() string {
	var sb strings.Builder
	n.shape(&sb, 0)
	return sb.String()
}

func (n *Node) shape(sb *strings.Builder, depth int) {
	if n == nil {
		return
	}
	for i := 0; i < depth; i++ {
		sb.WriteString("  ")
	}
	sb.WriteString(n.Span.Name)
	for _, a := range n.Span.Attrs {
		sb.WriteByte(' ')
		sb.WriteString(a.Key)
		sb.WriteByte('=')
		sb.WriteString(a.Value)
	}
	sb.WriteByte('\n')
	type childShape struct {
		rendered string
		id       string
	}
	shapes := make([]childShape, len(n.Children))
	for i, ch := range n.Children {
		var csb strings.Builder
		ch.shape(&csb, depth+1)
		shapes[i] = childShape{rendered: csb.String(), id: ch.Span.SpanID}
	}
	sort.Slice(shapes, func(i, j int) bool {
		if shapes[i].rendered != shapes[j].rendered {
			return shapes[i].rendered < shapes[j].rendered
		}
		return shapes[i].id < shapes[j].id
	})
	for _, cs := range shapes {
		sb.WriteString(cs.rendered)
	}
}

// JSONSpan is the wire form of one span subtree, used by the serve
// layer's JSONL trace log.
type JSONSpan struct {
	Name     string            `json:"name"`
	SpanID   string            `json:"span_id"`
	Parent   string            `json:"parent_span_id,omitempty"`
	Start    time.Time         `json:"start"`
	DurNS    int64             `json:"dur_ns"`
	Attrs    map[string]string `json:"attrs,omitempty"`
	Events   []JSONEvent       `json:"events,omitempty"`
	Children []*JSONSpan       `json:"children,omitempty"`
}

// JSONEvent is the wire form of one span event.
type JSONEvent struct {
	Name  string `json:"name"`
	DurNS int64  `json:"dur_ns"`
}

// JSON renders the subtree in its wire form.
func (n *Node) JSON() *JSONSpan {
	if n == nil {
		return nil
	}
	sp := n.Span
	out := &JSONSpan{
		Name:   sp.Name,
		SpanID: sp.SpanID,
		Parent: sp.Parent,
		Start:  sp.Start,
		DurNS:  int64(sp.Dur),
	}
	if len(sp.Attrs) > 0 {
		out.Attrs = make(map[string]string, len(sp.Attrs))
		for _, a := range sp.Attrs {
			out.Attrs[a.Key] = a.Value
		}
	}
	for _, ev := range sp.Events() {
		out.Events = append(out.Events, JSONEvent{Name: ev.Name, DurNS: int64(ev.Dur)})
	}
	for _, ch := range n.Children {
		out.Children = append(out.Children, ch.JSON())
	}
	return out
}

// ctxKey carries either the current *Span or, before the first span
// opens, the request's *Collector.
type ctxKey struct{}

// NewContext returns a context carrying sp as the current span; spans
// started from the returned context become its children.
func NewContext(ctx context.Context, sp *Span) context.Context {
	return context.WithValue(ctx, ctxKey{}, sp)
}

// NewCollectorContext arms a context for tracing before any span is
// open: the first Start against it opens a root span on col.
func NewCollectorContext(ctx context.Context, col *Collector) context.Context {
	return context.WithValue(ctx, ctxKey{}, col)
}

// FromContext returns the current span (nil when the context carries no
// span — including when it carries only a collector).
func FromContext(ctx context.Context) *Span {
	sp, _ := ctx.Value(ctxKey{}).(*Span)
	return sp
}

// Active reports whether the context is armed for tracing (carries a
// span or a collector).
func Active(ctx context.Context) bool {
	return ctx.Value(ctxKey{}) != nil
}

// CollectorFromContext returns the context's collector whether the
// context carries a bare collector or a span (nil when unarmed).
func CollectorFromContext(ctx context.Context) *Collector {
	switch v := ctx.Value(ctxKey{}).(type) {
	case *Span:
		return v.Collector()
	case *Collector:
		return v
	default:
		return nil
	}
}

// Start opens a span named name under the context's current position —
// a child of the current span, or a root span when the context carries
// a bare collector — and returns a context with the new span current.
// On an unarmed context it returns (ctx, nil) with zero allocations:
// the disabled fast path every hot loop relies on.
func Start(ctx context.Context, name string) (context.Context, *Span) {
	switch v := ctx.Value(ctxKey{}).(type) {
	case *Span:
		sp := v.StartChild(name)
		return NewContext(ctx, sp), sp
	case *Collector:
		sp := v.StartSpan(name)
		return NewContext(ctx, sp), sp
	default:
		return ctx, nil
	}
}

// NewTraceID draws a random 32-hex trace ID. math/rand/v2's global
// generator is seeded per process and safe for concurrent use; trace
// IDs need uniqueness, not unpredictability.
func NewTraceID() string {
	return fmt.Sprintf("%016x%016x", rand.Uint64(), rand.Uint64())
}

// ValidTraceID reports whether s is a well-formed trace ID: 32
// lowercase hex characters, not all zero (the W3C invalid sentinel).
func ValidTraceID(s string) bool {
	return validHex(s, 32)
}

// ValidSpanID reports whether s is a well-formed span ID: 16 lowercase
// hex characters, not all zero.
func ValidSpanID(s string) bool {
	return validHex(s, 16)
}

func validHex(s string, n int) bool {
	if len(s) != n {
		return false
	}
	zero := true
	for i := 0; i < n; i++ {
		c := s[i]
		if !(c >= '0' && c <= '9' || c >= 'a' && c <= 'f') {
			return false
		}
		if c != '0' {
			zero = false
		}
	}
	return !zero
}

// ParseTraceparent parses a W3C traceparent header value
// (version-traceid-spanid-flags). It accepts any version byte and
// ignores the flags, returning ok only when both IDs are well-formed.
func ParseTraceparent(v string) (traceID, spanID string, ok bool) {
	parts := strings.Split(strings.TrimSpace(v), "-")
	if len(parts) < 4 {
		return "", "", false
	}
	if len(parts[0]) != 2 || !ValidTraceID(parts[1]) || !ValidSpanID(parts[2]) {
		return "", "", false
	}
	return parts[1], parts[2], true
}

// Inbound resolves a request's tracing intent from its two tracing
// header values: the W3C traceparent and the bare 32-hex X-Fam-Trace.
// Either non-empty header arms tracing. X-Fam-Trace wins the trace ID
// when both carry one; a valid traceparent also yields the remote
// parent span. A malformed traceparent is ignored, and a non-hex
// X-Fam-Trace arms under a fresh ID, rather than failing the request —
// tracing must never break serving.
func Inbound(traceparent, famTrace string) (traceID, remoteSpan string, armed bool) {
	if traceparent != "" {
		if t, s, ok := ParseTraceparent(traceparent); ok {
			traceID, remoteSpan, armed = t, s, true
		}
	}
	if famTrace != "" {
		armed = true
		if ValidTraceID(famTrace) {
			traceID = famTrace
		}
	}
	return traceID, remoteSpan, armed
}

// FormatTraceparent renders a version-00 traceparent value with the
// sampled flag set — what the serve layer echoes (and what a router
// would forward downstream).
func FormatTraceparent(traceID, spanID string) string {
	return "00-" + traceID + "-" + spanID + "-01"
}
