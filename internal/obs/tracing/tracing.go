// Package tracing is a dependency-free distributed-tracing layer for the
// simulation stack: spans with trace/span/parent identity, wall-clock
// start and duration, typed attributes and an abort class, carried across
// the cluster→simd HTTP hop with W3C-style `traceparent` propagation.
//
// The design rule is zero-alloc-off-by-default: a nil *Tracer is the
// disabled tracer, every method on it (and on the nil *Span handles it
// returns) is a no-op, and no identifier, attribute or clock read is
// produced on the disabled path. Kernel benchmarks therefore measure the
// same code with tracing compiled in as before it existed.
//
// Finished spans flow into a Sink: a Buffer (per-job collection inside
// simd), a JSONL writer (the simctl -trace-out file), or the
// FlightRecorder (the bounded slow/aborted job store behind /debug/jobs).
package tracing

import (
	"context"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"involution/internal/splitmix"
)

// SpanContext is the propagated identity of a span: enough to parent a
// child in another process.
type SpanContext struct {
	// TraceID is the 32-hex-digit trace identifier shared by every span of
	// one logical operation (a job, a campaign).
	TraceID string `json:"trace"`
	// SpanID is the 16-hex-digit identifier of this span.
	SpanID string `json:"span"`
}

// Valid reports whether both identifiers are present.
func (sc SpanContext) Valid() bool { return len(sc.TraceID) == 32 && len(sc.SpanID) == 16 }

// Traceparent renders the context as a W3C traceparent header value
// (version 00, sampled flag set): 00-<trace-id>-<span-id>-01.
func (sc SpanContext) Traceparent() string {
	return "00-" + sc.TraceID + "-" + sc.SpanID + "-01"
}

// TraceparentHeader is the propagation header name.
const TraceparentHeader = "traceparent"

// ParseTraceparent parses a W3C traceparent header value. Unknown versions
// are accepted as long as the field shape matches (the spec's
// forward-compatibility rule); all-zero identifiers are rejected.
func ParseTraceparent(s string) (SpanContext, bool) {
	// version(2) - traceid(32) - spanid(16) - flags(2)
	if len(s) < 55 || s[2] != '-' || s[35] != '-' || s[52] != '-' {
		return SpanContext{}, false
	}
	sc := SpanContext{TraceID: s[3:35], SpanID: s[36:52]}
	if !isHex(sc.TraceID) || !isHex(sc.SpanID) || isZero(sc.TraceID) || isZero(sc.SpanID) {
		return SpanContext{}, false
	}
	return sc, true
}

func isHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if !('0' <= c && c <= '9' || 'a' <= c && c <= 'f') {
			return false
		}
	}
	return true
}

func isZero(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] != '0' {
			return false
		}
	}
	return true
}

// Attr is one typed span attribute. Exactly one of the typed fields is
// meaningful; the constructors keep the invariant.
type Attr struct {
	Key string `json:"k"`
	// Kind discriminates the value field: "s", "i" or "f".
	Kind  string  `json:"t"`
	Str   string  `json:"s,omitempty"`
	Int   int64   `json:"i,omitempty"`
	Float float64 `json:"f,omitempty"`
}

// Str builds a string attribute.
func Str(k, v string) Attr { return Attr{Key: k, Kind: "s", Str: v} }

// Int builds an integer attribute.
func Int(k string, v int64) Attr { return Attr{Key: k, Kind: "i", Int: v} }

// Float builds a float attribute.
func Float(k string, v float64) Attr { return Attr{Key: k, Kind: "f", Float: v} }

// Value returns the attribute's value as a display string.
func (a Attr) Value() string {
	switch a.Kind {
	case "i":
		return fmt.Sprintf("%d", a.Int)
	case "f":
		return fmt.Sprintf("%g", a.Float)
	default:
		return a.Str
	}
}

// SpanRec is one finished span — the wire and storage form. Records are
// self-contained: merging JSONL streams from several nodes loses nothing.
type SpanRec struct {
	SpanContext
	// Parent is the 16-hex-digit parent span id ("" for a root).
	Parent string `json:"parent,omitempty"`
	// Name is the operation: dispatch, route, attempt, admission, cache,
	// queue-wait, sim, merge, …
	Name string `json:"name"`
	// Node labels the process that recorded the span (simd -advertise
	// address, "simctl", …).
	Node string `json:"node,omitempty"`
	// Start is the span's wall-clock start.
	Start time.Time `json:"start"`
	// DurNS is the span's duration in nanoseconds.
	DurNS int64 `json:"dur_ns"`
	// Abort is the sim abort class when the spanned operation aborted.
	Abort string `json:"abort,omitempty"`
	// Attrs are the typed attributes.
	Attrs []Attr `json:"attrs,omitempty"`
}

// Duration returns the span's duration.
func (r SpanRec) Duration() time.Duration { return time.Duration(r.DurNS) }

// Attr returns the value of the named attribute ("" when absent).
func (r SpanRec) Attr(key string) string {
	for _, a := range r.Attrs {
		if a.Key == key {
			return a.Value()
		}
	}
	return ""
}

// Sink receives finished spans. Implementations must be safe for
// concurrent use; Record must not retain rec.Attrs beyond the call unless
// it copies (the provided sinks store the record as given — span handles
// never touch the slice after End).
type Sink interface {
	Record(rec SpanRec)
}

// Tracer mints spans for one process. The nil *Tracer is the disabled
// tracer: every method is a no-op returning nil handles, so call sites
// need no enablement checks and pay no allocation when tracing is off.
type Tracer struct {
	node string
	sink Sink
	// id is the splitmix64 state behind trace/span identifiers.
	id atomic.Uint64
}

// New returns a tracer stamping spans with the given node label and
// sending finished spans to sink. A nil sink yields a nil (disabled)
// tracer.
func New(node string, sink Sink) *Tracer {
	if sink == nil {
		return nil
	}
	t := &Tracer{node: node, sink: sink}
	t.id.Store(uint64(time.Now().UnixNano()))
	return t
}

// Node returns the tracer's node label ("" on the disabled tracer).
func (t *Tracer) Node() string {
	if t == nil {
		return ""
	}
	return t.node
}

// nextID draws the next 64-bit identifier (splitmix64: cheap, well mixed,
// collision-unlikely across concurrent tracers seeded by start time).
func (t *Tracer) nextID() uint64 {
	for {
		if x := splitmix.Mix(t.id.Add(splitmix.Gamma)); x != 0 {
			return x
		}
	}
}

func (t *Tracer) newTraceID() string {
	var b [16]byte
	putU64(b[:8], t.nextID())
	putU64(b[8:], t.nextID())
	return hex.EncodeToString(b[:])
}

func (t *Tracer) newSpanID() string {
	var b [8]byte
	putU64(b[:], t.nextID())
	return hex.EncodeToString(b[:])
}

func putU64(b []byte, v uint64) {
	for i := 7; i >= 0; i-- {
		b[i] = byte(v)
		v >>= 8
	}
}

// Span is a live span handle. Handles are single-goroutine objects (the
// usual start/end pairing); the nil handle is valid and ignores every
// call.
type Span struct {
	tracer *Tracer
	rec    SpanRec
	ended  bool
}

// start mints a span under the given trace/parent ("" trace starts a new
// one).
func (t *Tracer) start(name, traceID, parent string) *Span {
	if t == nil {
		return nil
	}
	if traceID == "" {
		traceID = t.newTraceID()
	}
	return &Span{tracer: t, rec: SpanRec{
		SpanContext: SpanContext{TraceID: traceID, SpanID: t.newSpanID()},
		Parent:      parent,
		Name:        name,
		Node:        t.node,
		Start:       time.Now(),
	}}
}

// StartRoot begins a new trace with a root span.
func (t *Tracer) StartRoot(name string) *Span { return t.start(name, "", "") }

// StartChild begins a child of parent; a nil or invalid parent starts a
// new root instead, so call sites compose without conditionals.
func (t *Tracer) StartChild(parent *Span, name string) *Span {
	if parent == nil || !parent.rec.Valid() {
		return t.StartRoot(name)
	}
	return t.start(name, parent.rec.TraceID, parent.rec.SpanID)
}

// StartRemote begins a child of a span context received from another
// process (a parsed traceparent). An invalid context starts a new root.
func (t *Tracer) StartRemote(sc SpanContext, name string) *Span {
	if !sc.Valid() {
		return t.StartRoot(name)
	}
	return t.start(name, sc.TraceID, sc.SpanID)
}

// StartSpan begins a span parented on the span carried by ctx (a new root
// when ctx carries none) and returns ctx with the new span attached.
func (t *Tracer) StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	if t == nil {
		return ctx, nil
	}
	sp := t.StartChild(FromContext(ctx), name)
	return ContextWith(ctx, sp), sp
}

// Context returns the span's propagable identity (the zero SpanContext on
// a nil handle).
func (s *Span) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return s.rec.SpanContext
}

// SetStart rewinds the span's start to an instant observed before the
// handle existed (a job's admission span covers request decoding, which
// happens before the job — and its tracer — is registered). Safe on a nil
// handle; a no-op once the span ended.
func (s *Span) SetStart(t time.Time) {
	if s == nil || s.ended || t.IsZero() {
		return
	}
	s.rec.Start = t
}

// SetAttrs appends attributes. Safe on a nil handle.
func (s *Span) SetAttrs(attrs ...Attr) {
	if s == nil {
		return
	}
	s.rec.Attrs = append(s.rec.Attrs, attrs...)
}

// SetAbort marks the spanned operation aborted with the given class. Safe
// on a nil handle.
func (s *Span) SetAbort(class string) {
	if s == nil {
		return
	}
	s.rec.Abort = class
}

// End finishes the span and delivers it to the tracer's sink. End is
// idempotent and safe on a nil handle.
func (s *Span) End() {
	if s == nil || s.ended {
		return
	}
	s.ended = true
	s.rec.DurNS = int64(time.Since(s.rec.Start))
	s.tracer.sink.Record(s.rec)
}

// EndAt finishes the span with an explicit end time — for spans whose
// boundary was observed before the handle could be ended (queue-wait ends
// when the worker picks the job up, not when the bookkeeping runs).
func (s *Span) EndAt(end time.Time) {
	if s == nil || s.ended {
		return
	}
	s.ended = true
	if d := end.Sub(s.rec.Start); d > 0 {
		s.rec.DurNS = int64(d)
	}
	s.tracer.sink.Record(s.rec)
}

// ctxKey carries a *Span through a context.
type ctxKey struct{}

// ContextWith returns ctx carrying sp.
func ContextWith(ctx context.Context, sp *Span) context.Context {
	if sp == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, sp)
}

// FromContext returns the span carried by ctx (nil when absent).
func FromContext(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	sp, _ := ctx.Value(ctxKey{}).(*Span)
	return sp
}

// Buffer is a Sink collecting spans in memory — the per-job collection
// point inside simd and the test harness's capture sink.
type Buffer struct {
	mu    sync.Mutex
	spans []SpanRec
}

// Record implements Sink.
func (b *Buffer) Record(rec SpanRec) {
	b.mu.Lock()
	b.spans = append(b.spans, rec)
	b.mu.Unlock()
}

// Spans returns a copy of the collected spans in arrival order.
func (b *Buffer) Spans() []SpanRec {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]SpanRec(nil), b.spans...)
}

// JSONLSink writes each finished span as one JSON line — the simctl
// -trace-out format, readable back with ReadJSONL.
type JSONLSink struct {
	mu  sync.Mutex
	w   io.Writer
	err error
}

// NewJSONLSink returns a sink writing to w.
func NewJSONLSink(w io.Writer) *JSONLSink { return &JSONLSink{w: w} }

// Record implements Sink; the first write error sticks and is reported by
// Err.
func (s *JSONLSink) Record(rec SpanRec) {
	raw, err := json.Marshal(rec)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return
	}
	if err != nil {
		s.err = err
		return
	}
	raw = append(raw, '\n')
	if _, werr := s.w.Write(raw); werr != nil {
		s.err = werr
	}
}

// Err returns the first error encountered while writing.
func (s *JSONLSink) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// ReadJSONL parses a span-per-line stream (the JSONLSink format). Blank
// lines are skipped; a malformed line fails the read.
func ReadJSONL(r io.Reader) ([]SpanRec, error) {
	dec := json.NewDecoder(r)
	var out []SpanRec
	for {
		var rec SpanRec
		if err := dec.Decode(&rec); err != nil {
			if err == io.EOF {
				return out, nil
			}
			return nil, fmt.Errorf("tracing: reading spans: %w", err)
		}
		out = append(out, rec)
	}
}
