package obs

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestObsSpanTreeAssembly(t *testing.T) {
	col := NewCollector("")
	ctx := NewCollectorContext(context.Background(), col)

	ctx, root := Start(ctx, "request")
	if root == nil {
		t.Fatal("Start on collector context returned nil span")
	}
	cctx, child := Start(ctx, "child")
	_, grand := Start(cctx, "grandchild")
	grand.SetAttrInt("k", 3)
	grand.End()
	child.End()
	_, sib := Start(ctx, "sibling")
	sib.End()
	root.End()

	tree := col.Tree()
	if tree == nil {
		t.Fatal("Tree returned nil")
	}
	if tree.Span.Name != "request" {
		t.Fatalf("root = %q, want request", tree.Span.Name)
	}
	if len(tree.Children) != 2 {
		t.Fatalf("root children = %d, want 2", len(tree.Children))
	}
	want := "request\n  child\n    grandchild k=3\n  sibling\n"
	if got := tree.Shape(); got != want {
		t.Fatalf("Shape:\n%s\nwant:\n%s", got, want)
	}
	for _, sp := range col.Spans() {
		if sp.TraceID != col.TraceID() {
			t.Fatalf("span %s trace ID %q != collector %q", sp.Name, sp.TraceID, col.TraceID())
		}
	}
}

func TestObsSubtreeNode(t *testing.T) {
	col := NewCollector("")
	ctx := NewCollectorContext(context.Background(), col)
	ctx, root := Start(ctx, "outer")
	ictx, inner := Start(ctx, "inner")
	_, leaf := Start(ictx, "leaf")
	leaf.End()
	inner.End()

	// Subtree is available while the enclosing span is still open.
	sub := col.Node(inner.SpanID)
	if sub == nil || sub.Span.Name != "inner" {
		t.Fatalf("Node(inner) = %+v", sub)
	}
	if got, want := sub.Shape(), "inner\n  leaf\n"; got != want {
		t.Fatalf("subtree shape %q, want %q", got, want)
	}
	root.End()
}

func TestObsDisabledFastPath(t *testing.T) {
	ctx := context.Background()
	got, sp := Start(ctx, "anything")
	if sp != nil {
		t.Fatal("Start on unarmed context returned a span")
	}
	if got != ctx {
		t.Fatal("Start on unarmed context returned a new context")
	}
	// Every method must be a nil-receiver no-op.
	sp.SetAttr("k", "v")
	sp.SetAttrInt("n", 1)
	sp.SetAttrBool("b", true)
	sp.Event("e", time.Millisecond)
	sp.End()
	if sp.StartChild("c") != nil {
		t.Fatal("StartChild on nil span returned a span")
	}
	if Active(ctx) {
		t.Fatal("unarmed context reports Active")
	}
}

func TestObsDisabledZeroAlloc(t *testing.T) {
	ctx := context.Background()
	allocs := testing.AllocsPerRun(1000, func() {
		c, sp := Start(ctx, "hot")
		sp.SetAttrInt("n", 42)
		sp.SetAttrBool("shared", true)
		sp.Event("grant", time.Microsecond)
		sp.End()
		_ = c
	})
	if allocs != 0 {
		t.Fatalf("disabled tracing path allocates %.1f allocs/op, want 0", allocs)
	}
}

func TestObsShapeDeterministicAcrossEndOrder(t *testing.T) {
	build := func(reverse bool) string {
		col := NewCollector("")
		ctx := NewCollectorContext(context.Background(), col)
		ctx, root := Start(ctx, "root")
		_, a := Start(ctx, "alpha")
		_, b := Start(ctx, "beta")
		if reverse {
			b.End()
			a.End()
		} else {
			a.End()
			b.End()
		}
		root.End()
		return col.Tree().Shape()
	}
	if f, r := build(false), build(true); f != r {
		t.Fatalf("shape depends on End order:\n%s\nvs\n%s", f, r)
	}
}

func TestObsConcurrentEvents(t *testing.T) {
	col := NewCollector("")
	sp := col.StartSpan("pooled")
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sp.Event("grant", time.Microsecond)
		}()
	}
	wg.Wait()
	sp.End()
	if got := len(sp.Events()); got != 16 {
		t.Fatalf("events = %d, want 16", got)
	}
	// Events must not appear in the deterministic shape.
	if got := col.Tree().Shape(); got != "pooled\n" {
		t.Fatalf("shape %q includes events", got)
	}
}

func TestObsTraceIDValidation(t *testing.T) {
	id := NewTraceID()
	if !ValidTraceID(id) {
		t.Fatalf("NewTraceID produced invalid ID %q", id)
	}
	for _, bad := range []string{
		"", "abc", strings.Repeat("0", 32), strings.Repeat("G", 32),
		strings.Repeat("A", 32), // uppercase hex is rejected
		strings.Repeat("a", 31), strings.Repeat("a", 33),
	} {
		if ValidTraceID(bad) {
			t.Fatalf("ValidTraceID(%q) = true", bad)
		}
	}
	// An invalid incoming ID is replaced, a valid one adopted.
	if col := NewCollector("not-hex"); !ValidTraceID(col.TraceID()) {
		t.Fatalf("collector kept invalid trace ID %q", col.TraceID())
	}
	if col := NewCollector(id); col.TraceID() != id {
		t.Fatalf("collector replaced valid trace ID: %q", col.TraceID())
	}
}

func TestObsTraceparentRoundTrip(t *testing.T) {
	traceID := NewTraceID()
	spanID := "00f067aa0ba902b7"
	v := FormatTraceparent(traceID, spanID)
	gotTrace, gotSpan, ok := ParseTraceparent(v)
	if !ok || gotTrace != traceID || gotSpan != spanID {
		t.Fatalf("round trip failed: %q -> (%q, %q, %v)", v, gotTrace, gotSpan, ok)
	}
	for _, bad := range []string{
		"", "00-zz-b7-01",
		"00-" + strings.Repeat("0", 32) + "-" + spanID + "-01",
		"00-" + traceID + "-" + strings.Repeat("0", 16) + "-01",
		"0-" + traceID + "-" + spanID + "-01",
	} {
		if _, _, ok := ParseTraceparent(bad); ok {
			t.Fatalf("ParseTraceparent(%q) accepted", bad)
		}
	}
	// Remote parent links local roots under the caller's span.
	col := NewCollector(traceID)
	col.SetRemoteParent(spanID)
	sp := col.StartSpan("local")
	sp.End()
	if sp.Parent != spanID {
		t.Fatalf("root parent = %q, want remote %q", sp.Parent, spanID)
	}
	if tree := col.Tree(); tree == nil || tree.Span.Name != "local" {
		t.Fatalf("remote-parent span is not a local root: %+v", tree)
	}
}

// TestInbound: the two tracing headers resolve to (trace ID, remote
// parent, armed) — X-Fam-Trace wins the trace ID, a valid traceparent
// supplies the remote parent, and malformed values arm without failing.
func TestInbound(t *testing.T) {
	const (
		tpTrace = "4bf92f3577b34da6a3ce929d0e0e4736"
		tpSpan  = "00f067aa0ba902b7"
		famID   = "0123456789abcdef0123456789abcdef"
	)
	tp := FormatTraceparent(tpTrace, tpSpan)
	cases := []struct {
		name, traceparent, famTrace string
		traceID, remoteSpan         string
		armed                       bool
	}{
		{"none", "", "", "", "", false},
		{"both", tp, famID, famID, tpSpan, true},
		{"traceparent only", tp, "", tpTrace, tpSpan, true},
		{"x-fam-trace only", "", famID, famID, "", true},
		{"malformed traceparent", "00-zz-b7-01", "", "", "", false},
		{"malformed traceparent with x-fam-trace", "00-zz-b7-01", famID, famID, "", true},
		{"non-hex x-fam-trace", "", "yes please", "", "", true},
		{"non-hex x-fam-trace with traceparent", tp, "yes please", tpTrace, tpSpan, true},
	}
	for _, c := range cases {
		traceID, remoteSpan, armed := Inbound(c.traceparent, c.famTrace)
		if traceID != c.traceID || remoteSpan != c.remoteSpan || armed != c.armed {
			t.Errorf("%s: Inbound(%q, %q) = (%q, %q, %t), want (%q, %q, %t)", c.name, c.traceparent, c.famTrace,
				traceID, remoteSpan, armed, c.traceID, c.remoteSpan, c.armed)
		}
	}
}

func TestObsJSONTree(t *testing.T) {
	col := NewCollector("")
	ctx := NewCollectorContext(context.Background(), col)
	ctx, root := Start(ctx, "req")
	root.SetAttr("endpoint", "/v2/select")
	_, ch := Start(ctx, "inner")
	ch.Event("pool.grant", 5*time.Microsecond)
	ch.End()
	root.End()

	j := col.Tree().JSON()
	if j.Name != "req" || j.Attrs["endpoint"] != "/v2/select" {
		t.Fatalf("JSON root = %+v", j)
	}
	if len(j.Children) != 1 || j.Children[0].Name != "inner" {
		t.Fatalf("JSON children = %+v", j.Children)
	}
	ev := j.Children[0].Events
	if len(ev) != 1 || ev[0].Name != "pool.grant" || ev[0].DurNS != 5000 {
		t.Fatalf("JSON events = %+v", ev)
	}
}
