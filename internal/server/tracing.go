package server

import (
	"net/http"
	"strconv"
	"time"

	"involution/internal/obs/tracing"
)

// jobTrace is the per-job tracing state: a private tracer whose sink is a
// span buffer, so one job's span tree assembles in isolation and lands in
// the flight recorder as a unit. Created only when the flight recorder is
// enabled — otherwise jobs carry a nil *jobTrace and every span call below
// hits the tracing package's nil fast path.
type jobTrace struct {
	tracer *tracing.Tracer
	buf    *tracing.Buffer
	// t0 is the submit handler's entry instant — the job's wall-clock start
	// including decode and compile, which happen before the job exists.
	t0   time.Time
	root *tracing.Span
	// queue is the open queue-wait span between enqueue and worker pickup.
	queue *tracing.Span
}

// beginTrace attaches tracing state to a freshly registered job: a root
// "job" span parented on the submitter's traceparent (a new trace when none
// was sent) and an "admission" span covering decode + compile + register.
// Must run before the job is handed to the pool or its record is served.
func (s *Server) beginTrace(j *job, remote tracing.SpanContext, t0 time.Time) {
	if s.flight == nil {
		return
	}
	buf := &tracing.Buffer{}
	tr := tracing.New(s.node, buf)
	root := tr.StartRemote(remote, "job")
	root.SetStart(t0)
	j.mu.Lock()
	root.SetAttrs(tracing.Str("id", j.rec.ID), tracing.Str("hash", j.c.hash), tracing.Str("circuit", j.c.name))
	j.rec.TraceID = root.Context().TraceID
	j.mu.Unlock()
	adm := tr.StartChild(root, "admission")
	adm.SetStart(t0)
	adm.End()
	j.tr = &jobTrace{tracer: tr, buf: buf, t0: t0, root: root}
}

// traceCacheLookup records the content-addressed cache verdict as a span.
func (j *job) traceCacheLookup(hit bool) {
	if j.tr == nil {
		return
	}
	sp := j.tr.tracer.StartChild(j.tr.root, "cache")
	h := int64(0)
	if hit {
		h = 1
	}
	sp.SetAttrs(tracing.Int("hit", h))
	sp.End()
}

// traceEnqueue opens the queue-wait span just before the job enters the
// worker pool; runJob closes it at pickup time.
func (j *job) traceEnqueue() {
	if j.tr == nil {
		return
	}
	j.tr.queue = j.tr.tracer.StartChild(j.tr.root, "queue-wait")
}

// finishTrace ends the job's root span and offers the assembled span tree
// to the flight recorder. Called exactly once from the terminal transition.
func (s *Server) finishTrace(j *job, end time.Time, status Status, class string) {
	if j.tr == nil {
		return
	}
	if status == StatusAborted {
		j.tr.root.SetAbort(class)
	}
	j.tr.root.EndAt(end)
	j.mu.Lock()
	traceID := j.rec.TraceID
	j.mu.Unlock()
	s.flight.Record(tracing.JobEntry{
		Hash:    j.c.hash,
		TraceID: traceID,
		Node:    s.node,
		Status:  string(status),
		Class:   class,
		Start:   j.tr.t0,
		DurNS:   int64(end.Sub(j.tr.t0)),
		Spans:   j.tr.buf.Spans(),
	})
}

// handleDebugJobs serves the flight recorder as JSONL: one JobEntry per
// line, slowest first, filtered by ?trace=, ?hash= and capped by ?n=.
func (s *Server) handleDebugJobs(w http.ResponseWriter, r *http.Request) {
	if s.flight == nil {
		writeError(w, http.StatusNotFound, "flight recorder disabled")
		return
	}
	q := r.URL.Query()
	f := tracing.Filter{TraceID: q.Get("trace"), Hash: q.Get("hash")}
	if n := q.Get("n"); n != "" {
		v, err := strconv.Atoi(n)
		if err != nil || v < 0 {
			writeError(w, http.StatusBadRequest, "n must be a non-negative integer")
			return
		}
		f.Limit = v
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	_ = s.flight.WriteJSONL(w, f)
}
