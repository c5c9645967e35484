package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"involution/internal/obs/tracing"
	"involution/internal/server/api"
)

// debugJobs fetches and decodes GET /debug/jobs with the given query.
func debugJobs(t *testing.T, h http.Handler, query string) []tracing.JobEntry {
	t.Helper()
	w := doJSON(t, h, "GET", "/debug/jobs"+query, nil)
	if w.Code != http.StatusOK {
		t.Fatalf("GET /debug/jobs%s: status %d: %s", query, w.Code, w.Body.String())
	}
	var out []tracing.JobEntry
	for _, line := range bytes.Split(bytes.TrimSpace(w.Body.Bytes()), []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		var e tracing.JobEntry
		if err := json.Unmarshal(line, &e); err != nil {
			t.Fatalf("bad /debug/jobs line %q: %v", line, err)
		}
		out = append(out, e)
	}
	return out
}

func spanNames(e tracing.JobEntry) map[string]tracing.SpanRec {
	byName := map[string]tracing.SpanRec{}
	for _, sp := range e.Spans {
		byName[sp.Name] = sp
	}
	return byName
}

// TestJobSpanTree submits a job carrying a traceparent and checks the full
// server-side span tree lands in the flight recorder: the job root adopts
// the remote trace and parent, admission/cache/queue-wait/sim nest under
// it, and the whole tree is addressable by trace ID via /debug/jobs.
func TestJobSpanTree(t *testing.T) {
	s := New(Config{Workers: 2, Advertise: "node-a:9000"})
	t.Cleanup(func() { s.Drain(5 * time.Second) })
	h := s.Handler()

	remote := tracing.SpanContext{
		TraceID: "0123456789abcdef0123456789abcdef",
		SpanID:  "00f067aa0ba902b7",
	}
	raw, _ := json.Marshal(Request{Netlist: bufNetlist, Inputs: map[string]string{"i": "0 r@1 f@2"}, Horizon: 10})
	req := httptest.NewRequest("POST", "/v1/jobs?wait=1", bytes.NewReader(raw))
	req.Header.Set(tracing.TraceparentHeader, remote.Traceparent())
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("submit: status %d: %s", w.Code, w.Body.String())
	}
	rec := decodeRecord(t, w)
	if rec.TraceID != remote.TraceID {
		t.Fatalf("record trace_id = %q, want remote trace %q", rec.TraceID, remote.TraceID)
	}

	entries := debugJobs(t, h, "?trace="+remote.TraceID)
	if len(entries) != 1 {
		t.Fatalf("got %d flight entries for trace, want 1", len(entries))
	}
	e := entries[0]
	if e.Node != "node-a:9000" || e.Status != "completed" || e.Hash != rec.Hash {
		t.Fatalf("entry = %+v, want node-a:9000/completed/%s", e, rec.Hash)
	}
	byName := spanNames(e)
	root, ok := byName["job"]
	if !ok {
		t.Fatalf("no job root span; spans: %v", e.Spans)
	}
	if root.TraceID != remote.TraceID || root.Parent != remote.SpanID {
		t.Fatalf("job root = %+v, want child of remote %+v", root.SpanContext, remote)
	}
	for _, name := range []string{"admission", "cache", "queue-wait", "sim"} {
		sp, ok := byName[name]
		if !ok {
			t.Fatalf("missing %s span; spans: %v", name, e.Spans)
		}
		if sp.Parent != root.SpanID || sp.TraceID != remote.TraceID {
			t.Fatalf("%s span not parented on job root: %+v", name, sp)
		}
		if sp.Start.Before(root.Start) || sp.Duration() > e.Duration() {
			t.Fatalf("%s span outside the job window: %+v", name, sp)
		}
	}
	if byName["cache"].Attr("hit") != "0" {
		t.Fatalf("first run cache span = %+v, want hit=0", byName["cache"])
	}
	if byName["sim"].Attr("delivered") == "" {
		t.Fatalf("sim span lacks delivered attr: %+v", byName["sim"])
	}

	// A repeat submission without a traceparent mints a fresh trace and
	// records a cache-hit tree (no queue-wait or sim — nothing ran).
	rec2 := submitWait(t, h, Request{Netlist: bufNetlist, Inputs: map[string]string{"i": "0 r@1 f@2"}, Horizon: 10})
	if !rec2.Cached {
		t.Fatalf("second submit not served from cache: %+v", rec2)
	}
	if rec2.TraceID == "" || rec2.TraceID == remote.TraceID {
		t.Fatalf("cached submit trace_id = %q, want a fresh trace", rec2.TraceID)
	}
	hit := debugJobs(t, h, "?trace="+rec2.TraceID)
	if len(hit) != 1 {
		t.Fatalf("got %d entries for cached trace, want 1", len(hit))
	}
	hitSpans := spanNames(hit[0])
	if hitSpans["cache"].Attr("hit") != "1" {
		t.Fatalf("cache span on hit = %+v, want hit=1", hitSpans["cache"])
	}
	if _, ok := hitSpans["sim"]; ok {
		t.Fatalf("cache hit recorded a sim span: %v", hit[0].Spans)
	}

	// Filtering by hash finds both entries; an unknown trace finds none.
	if got := debugJobs(t, h, "?hash="+rec.Hash); len(got) != 2 {
		t.Fatalf("hash filter found %d entries, want 2", len(got))
	}
	if got := debugJobs(t, h, "?trace=ffffffffffffffffffffffffffffffff"); len(got) != 0 {
		t.Fatalf("unknown trace found %d entries, want 0", len(got))
	}
}

// TestAbortedJobInFlightRecorder checks aborted jobs are retained with the
// abort class stamped on the root span and the entry.
func TestAbortedJobInFlightRecorder(t *testing.T) {
	s := testServer(t)
	h := s.Handler()
	rec := submitWait(t, h, Request{Netlist: ringNetlist, Horizon: 1e9, MaxEvents: 500})
	if rec.Status != StatusAborted {
		t.Fatalf("ring job status = %s, want aborted", rec.Status)
	}
	entries := debugJobs(t, h, "?trace="+rec.TraceID)
	if len(entries) != 1 {
		t.Fatalf("got %d entries, want 1", len(entries))
	}
	e := entries[0]
	if e.Status != "aborted" || e.Class != rec.Class {
		t.Fatalf("entry = status %s class %s, want aborted/%s", e.Status, e.Class, rec.Class)
	}
	byName := spanNames(e)
	if byName["job"].Abort != rec.Class {
		t.Fatalf("job root abort = %q, want %q", byName["job"].Abort, rec.Class)
	}
	if byName["sim"].Abort != rec.Class {
		t.Fatalf("sim span abort = %q, want %q", byName["sim"].Abort, rec.Class)
	}
}

// TestTracingDisabled checks FlightOff turns tracing off: no
// trace IDs on records, 404 from /debug/jobs — and jobs still run.
func TestTracingDisabled(t *testing.T) {
	s := New(Config{Workers: 2, FlightOff: true})
	t.Cleanup(func() { s.Drain(5 * time.Second) })
	h := s.Handler()
	rec := submitWait(t, h, Request{Netlist: bufNetlist, Inputs: map[string]string{"i": "0 r@1"}, Horizon: 10})
	if rec.Status != StatusCompleted || rec.TraceID != "" {
		t.Fatalf("record = %+v, want completed with no trace_id", rec)
	}
	if w := doJSON(t, h, "GET", "/debug/jobs", nil); w.Code != http.StatusNotFound {
		t.Fatalf("/debug/jobs with tracing disabled: status %d, want 404", w.Code)
	}
}

// TestVersionAndBuildInfo checks /version echoes the toolchain identity and
// /metrics carries build_info plus the new stage histograms with quantiles.
func TestVersionAndBuildInfo(t *testing.T) {
	s := New(Config{Workers: 2, Version: "v9.9.9"})
	t.Cleanup(func() { s.Drain(5 * time.Second) })
	h := s.Handler()
	submitWait(t, h, Request{Netlist: bufNetlist, Inputs: map[string]string{"i": "0 r@1"}, Horizon: 10})

	w := doJSON(t, h, "GET", "/version", nil)
	var v api.Version
	if err := json.Unmarshal(w.Body.Bytes(), &v); err != nil {
		t.Fatal(err)
	}
	if v.Version != "v9.9.9" || !strings.HasPrefix(v.GoVersion, "go") || v.GOOS == "" || v.GOARCH == "" {
		t.Fatalf("/version = %+v, want toolchain identity", v)
	}

	mw := doJSON(t, h, "GET", "/metrics", nil)
	text := mw.Body.String()
	for _, want := range []string{
		`build_info{service="simd",version="v9.9.9"`,
		"simd_queue_wait_seconds_count 1",
		"simd_sim_run_seconds_p99 ",
		"simd_flight_recorded_total 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q:\n%s", want, text)
		}
	}
}
