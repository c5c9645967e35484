package main

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Span names. A job span is one client-visible job (fault.Executor or
// attack.Evaluator call, or one kernel request); its children are the
// HTTP round trips it made, whose children are the server handler calls
// that answered them. Kernel jobs have direct compile and sim children.
const (
	spanJob       = "job"
	spanRoundTrip = "http.roundtrip"
	spanHandle    = "server.handle"
	spanCompile   = "netlist.compile"
	spanSim       = "sim.run"
)

// spanHeader carries the round trip's span id to the node's handler, so
// the handler span can name its parent.
const spanHeader = "X-Stackbench-Span"

type span struct {
	ID     uint64    `json:"id"`
	Parent uint64    `json:"parent,omitempty"`
	Name   string    `json:"name"`
	Start  time.Time `json:"start"`
	DurNS  int64     `json:"dur_ns"`
}

// tracer records spans in memory from the benchmark's own wrappers around
// the public seams. It exists only in --trace 1 runs and records only
// while on; the nil tracer records nothing.
type tracer struct {
	on    atomic.Bool
	next  atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func (t *tracer) enabled() bool { return t != nil && t.on.Load() }

func (t *tracer) newID() uint64 { return t.next.Add(1) }

func (t *tracer) record(id, parent uint64, name string, start time.Time) {
	sp := span{ID: id, Parent: parent, Name: name, Start: start, DurNS: int64(time.Since(start))}
	t.mu.Lock()
	t.spans = append(t.spans, sp)
	t.mu.Unlock()
}

type jobKey struct{}

// startJob opens a job span when tracing is on; end closes it.
func (t *tracer) startJob(ctx context.Context) (context.Context, func()) {
	if !t.enabled() {
		return ctx, func() {}
	}
	id, start := t.newID(), time.Now()
	return context.WithValue(ctx, jobKey{}, id), func() { t.record(id, 0, spanJob, start) }
}

// child records a span under the job carried by ctx.
func (t *tracer) child(ctx context.Context, name string, start time.Time) {
	if t.enabled() {
		parent, _ := ctx.Value(jobKey{}).(uint64)
		t.record(t.newID(), parent, name, start)
	}
}

// handler wraps a node's server.Handler() and times every submit.
func (t *tracer) handler(next http.Handler) http.Handler {
	if t == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.enabled() || r.Method != http.MethodPost {
			next.ServeHTTP(w, r)
			return
		}
		parent, _ := strconv.ParseUint(r.Header.Get(spanHeader), 10, 64)
		start := time.Now()
		next.ServeHTTP(w, r)
		t.record(t.newID(), parent, spanHandle, start)
	})
}

// transport wraps the coordinator's transport and times every submit from
// request to the client closing the response body.
func (t *tracer) transport(base http.RoundTripper) http.RoundTripper {
	if t == nil {
		return base
	}
	return &roundTripper{t: t, base: base}
}

type roundTripper struct {
	t    *tracer
	base http.RoundTripper
}

func (rt *roundTripper) RoundTrip(req *http.Request) (*http.Response, error) {
	if !rt.t.enabled() || req.Method != http.MethodPost {
		return rt.base.RoundTrip(req)
	}
	id, start := rt.t.newID(), time.Now()
	parent, _ := req.Context().Value(jobKey{}).(uint64)
	req = req.Clone(req.Context()) // a RoundTripper must not modify its request
	req.Header.Set(spanHeader, strconv.FormatUint(id, 10))
	resp, err := rt.base.RoundTrip(req)
	if err != nil {
		rt.t.record(id, parent, spanRoundTrip, start)
		return nil, err
	}
	resp.Body = &timedBody{ReadCloser: resp.Body, end: func() { rt.t.record(id, parent, spanRoundTrip, start) }}
	return resp, nil
}

type timedBody struct {
	io.ReadCloser
	once sync.Once
	end  func()
}

func (b *timedBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.end)
	return err
}

// jobs is the number of job spans recorded.
func (t *tracer) jobs() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, sp := range t.spans {
		if sp.Name == spanJob {
			n++
		}
	}
	return n
}

// layers derives the span-based per-layer metrics, per job: a layer's
// self time is its spans' duration minus what their children cover.
func (t *tracer) layers(vals map[string]float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	byID := make(map[uint64]*span, len(t.spans))
	for i := range t.spans {
		byID[t.spans[i].ID] = &t.spans[i]
	}
	// inJob reports whether a span descends from a job span; requests made
	// off the clock (the output checks) have none and are left out.
	var inJob func(sp *span) bool
	inJob = func(sp *span) bool {
		if sp.Name == spanJob {
			return true
		}
		p, ok := byID[sp.Parent]
		return ok && inJob(p)
	}
	total := map[string]float64{}    // ns summed per span name
	children := map[string]float64{} // ns of child spans summed per parent name
	count := map[string]float64{}
	for i := range t.spans {
		sp := &t.spans[i]
		if !inJob(sp) {
			continue
		}
		total[sp.Name] += float64(sp.DurNS)
		count[sp.Name]++
		if p, ok := byID[sp.Parent]; ok {
			children[p.Name] += float64(sp.DurNS)
		}
	}
	jobs := count[spanJob]
	if jobs == 0 {
		return
	}
	perJob := func(ns float64) float64 { return ns / jobs / 1e3 }
	vals["job_us"] = perJob(total[spanJob])
	vals["server.handle_us"] = perJob(total[spanHandle])
	vals["http.roundtrip_us"] = perJob(total[spanRoundTrip])
	vals["http.roundtrips"] = count[spanRoundTrip]
	if count[spanRoundTrip] > 0 {
		vals["cluster.jobs"] = jobs
		vals["http.self_us"] = perJob(total[spanRoundTrip] - children[spanRoundTrip])
		vals["cluster.self_us"] = perJob(total[spanJob] - children[spanJob])
		vals["cluster.attempts_per_job"] = count[spanRoundTrip] / jobs
	}
}

// write saves the recorded spans as JSONL.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for _, sp := range t.spans {
		if err := enc.Encode(sp); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
