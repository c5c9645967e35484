package tracing

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"
)

func TestTraceparentRoundTrip(t *testing.T) {
	var buf Buffer
	tr := New("node-a", &buf)
	sp := tr.StartRoot("dispatch")
	sc := sp.Context()
	if !sc.Valid() {
		t.Fatalf("root span context invalid: %+v", sc)
	}
	hdr := sc.Traceparent()
	got, ok := ParseTraceparent(hdr)
	if !ok {
		t.Fatalf("ParseTraceparent(%q) rejected its own encoding", hdr)
	}
	if got != sc {
		t.Fatalf("round trip: got %+v want %+v", got, sc)
	}
}

func TestParseTraceparentRejectsMalformed(t *testing.T) {
	bad := []string{
		"",
		"00-short-short-01",
		"00-0af7651916cd43dd8448eb211c80319c-00f067aa0ba902b7", // missing flags
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01",
		"00-0af7651916cd43dd8448eb211c80319c-0000000000000000-01",
		"00-0af7651916cd43dd8448eb211c80319X-00f067aa0ba902b7-01",
	}
	for _, s := range bad {
		if _, ok := ParseTraceparent(s); ok {
			t.Errorf("ParseTraceparent(%q) accepted malformed input", s)
		}
	}
	// Future versions with the same shape are accepted (forward compat).
	if _, ok := ParseTraceparent("cc-0af7651916cd43dd8448eb211c80319c-00f067aa0ba902b7-01"); !ok {
		t.Error("future traceparent version rejected")
	}
}

func TestSpanParentageAndSink(t *testing.T) {
	var buf Buffer
	tr := New("simctl", &buf)
	root := tr.StartRoot("dispatch")
	child := tr.StartChild(root, "route")
	child.SetAttrs(Str("key", "abcd"), Int("shard", 3), Float("frac", 0.5))
	child.End()
	root.SetAbort("budget")
	root.End()
	root.End() // idempotent

	spans := buf.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	if spans[0].Name != "route" || spans[1].Name != "dispatch" {
		t.Fatalf("unexpected order: %q, %q", spans[0].Name, spans[1].Name)
	}
	if spans[0].TraceID != spans[1].TraceID {
		t.Error("child not in parent's trace")
	}
	if spans[0].Parent != spans[1].SpanID {
		t.Error("child parent id does not match root span id")
	}
	if spans[0].Node != "simctl" {
		t.Errorf("node label %q, want simctl", spans[0].Node)
	}
	if spans[1].Abort != "budget" {
		t.Errorf("abort class %q, want budget", spans[1].Abort)
	}
	if got := spans[0].Attr("shard"); got != "3" {
		t.Errorf("attr shard = %q, want 3", got)
	}
	if got := spans[0].Attr("frac"); got != "0.5" {
		t.Errorf("attr frac = %q, want 0.5", got)
	}
}

func TestRemoteParenting(t *testing.T) {
	var cbuf, sbuf Buffer
	client := New("simctl", &cbuf)
	server := New("node-a", &sbuf)

	attempt := client.StartRoot("attempt")
	hdr := attempt.Context().Traceparent()

	sc, ok := ParseTraceparent(hdr)
	if !ok {
		t.Fatal("server could not parse propagated header")
	}
	job := server.StartRemote(sc, "job")
	job.End()
	attempt.End()

	s := sbuf.Spans()[0]
	c := cbuf.Spans()[0]
	if s.TraceID != c.TraceID {
		t.Error("remote span not in the propagated trace")
	}
	if s.Parent != c.SpanID {
		t.Error("remote span not parented on the propagated span")
	}
}

func TestContextCarriage(t *testing.T) {
	var buf Buffer
	tr := New("n", &buf)
	ctx := context.Background()
	ctx, root := tr.StartSpan(ctx, "outer")
	_, inner := tr.StartSpan(ctx, "inner")
	if inner.Context().TraceID != root.Context().TraceID {
		t.Error("inner span did not inherit the trace from ctx")
	}
	if FromContext(ctx) != root {
		t.Error("FromContext did not return the attached span")
	}
}

// TestDisabledTracerZeroAlloc is the off-by-default contract: a nil tracer
// and its nil span handles must not allocate anywhere on the span path.
func TestDisabledTracerZeroAlloc(t *testing.T) {
	var tr *Tracer
	ctx := context.Background()
	allocs := testing.AllocsPerRun(100, func() {
		sp := tr.StartRoot("dispatch")
		sp.SetAttrs(Str("k", "v"))
		sp.SetAbort("budget")
		child := tr.StartChild(sp, "route")
		child.End()
		cctx, s2 := tr.StartSpan(ctx, "x")
		if cctx != ctx {
			t.Fatal("disabled tracer must return ctx unchanged")
		}
		s2.EndAt(time.Time{})
		sp.End()
	})
	if allocs != 0 {
		t.Fatalf("disabled tracer allocated %v times per op, want 0", allocs)
	}
}

func TestJSONLSinkRoundTrip(t *testing.T) {
	var out bytes.Buffer
	sink := NewJSONLSink(&out)
	tr := New("n", sink)
	root := tr.StartRoot("a")
	tr.StartChild(root, "b").End()
	root.End()
	if err := sink.Err(); err != nil {
		t.Fatal(err)
	}
	spans, err := ReadJSONL(&out)
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	if spans[0].Name != "b" || spans[1].Name != "a" {
		t.Fatalf("unexpected names: %q, %q", spans[0].Name, spans[1].Name)
	}
}

func TestTimelineMergesNodesAndOrders(t *testing.T) {
	base := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	mk := func(trace, id, parent, name, node string, off, dur time.Duration) SpanRec {
		return SpanRec{
			SpanContext: SpanContext{TraceID: trace, SpanID: id},
			Parent:      parent, Name: name, Node: node,
			Start: base.Add(off), DurNS: int64(dur),
		}
	}
	trace := strings.Repeat("ab", 16)
	spans := []SpanRec{
		// Server-side spans arrive first (out of order), client side second.
		mk(trace, "aaaaaaaaaaaaaaa2", "aaaaaaaaaaaaaaa1", "sim", "node-b", 3*time.Millisecond, 5*time.Millisecond),
		mk(trace, "aaaaaaaaaaaaaaa1", "ccccccccccccccc1", "job", "node-b", 2*time.Millisecond, 7*time.Millisecond),
		mk(trace, "ccccccccccccccc1", "", "dispatch", "simctl", 0, 10*time.Millisecond),
		mk(trace, "aaaaaaaaaaaaaaa2", "", "dup", "node-b", 0, time.Millisecond), // duplicate id dropped
		mk(strings.Repeat("ff", 16), "ddddddddddddddd1", "", "other-trace", "x", 0, time.Millisecond),
	}
	tl := NewTimeline(trace, spans)
	if len(tl.Spans) != 3 {
		t.Fatalf("got %d spans, want 3 (dedup + trace filter)", len(tl.Spans))
	}
	wantOrder := []string{"dispatch", "job", "sim"}
	for i, name := range wantOrder {
		if tl.Spans[i].Name != name {
			t.Fatalf("render order %v, want %v", tl.Spans, wantOrder)
		}
	}
	if got := tl.Nodes(); len(got) != 2 || got[0] != "node-b" || got[1] != "simctl" {
		t.Fatalf("nodes = %v, want [node-b simctl]", got)
	}
	if tl.Wall() != 10*time.Millisecond {
		t.Fatalf("wall = %v, want 10ms", tl.Wall())
	}
	var out bytes.Buffer
	if err := tl.Render(&out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{"dispatch", "· job", "· · sim", "node-b", "simctl", "wall 10.000ms"} {
		if !strings.Contains(text, want) {
			t.Errorf("timeline output missing %q:\n%s", want, text)
		}
	}
}

func TestTimelinePicksEarliestRootTrace(t *testing.T) {
	base := time.Now()
	spans := []SpanRec{
		{SpanContext: SpanContext{TraceID: strings.Repeat("11", 16), SpanID: "aaaaaaaaaaaaaaa1"},
			Name: "late", Start: base.Add(time.Second)},
		{SpanContext: SpanContext{TraceID: strings.Repeat("22", 16), SpanID: "aaaaaaaaaaaaaaa2"},
			Name: "early", Start: base},
	}
	tl := NewTimeline("", spans)
	if len(tl.Spans) != 1 || tl.Spans[0].Name != "early" {
		t.Fatalf("auto trace selection picked %+v, want the earliest root", tl.Spans)
	}
}

// TestIDStreamPinned pins identifier generation to its values before the
// mixer moved onto internal/splitmix.
func TestIDStreamPinned(t *testing.T) {
	tr := &Tracer{}
	tr.id.Store(99)
	for i, want := range []uint64{0x42f3a9364c476be3, 0x81ab918879d69a4, 0xd5b2d034f041d2fb} {
		if got := tr.nextID(); got != want {
			t.Errorf("id %d = %#x, want %#x", i, got, want)
		}
	}
}
