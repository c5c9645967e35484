package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"sync"
	"time"
)

var errWrongOutput = errors.New("job output differs from the reference")

// failedLatency stands in for a failed job's latency: a failure counts as
// missing every latency limit, so it sorts into the tail.
const failedLatency = time.Duration(math.MaxInt64)

// window accumulates one timed window. The driving goroutine calls
// resume and pause; observe may be called from any goroutine.
type window struct {
	limit   time.Duration // the window is full once this much time is on its clock
	mu      sync.Mutex
	lats    []time.Duration // one per job with a client-visible call
	jobs    int
	failed  int
	events  int64
	active  time.Duration
	resumed time.Time

	mallocs uint64
	bytes   uint64
	gcs     uint32
	ms      runtime.MemStats
}

// resume starts (or continues) the clock. Work done while the clock is
// paused — output checks, fleet restarts — is not part of the window.
func (w *window) resume() {
	runtime.ReadMemStats(&w.ms)
	w.mallocs -= w.ms.Mallocs
	w.bytes -= w.ms.TotalAlloc
	w.gcs -= w.ms.NumGC
	w.mu.Lock()
	w.resumed = time.Now()
	w.mu.Unlock()
}

func (w *window) pause() {
	w.mu.Lock()
	w.active += time.Since(w.resumed)
	w.resumed = time.Time{}
	w.mu.Unlock()
	runtime.ReadMemStats(&w.ms)
	w.mallocs += w.ms.Mallocs
	w.bytes += w.ms.TotalAlloc
	w.gcs += w.ms.NumGC
}

func (w *window) elapsed() time.Duration {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.resumed.IsZero() {
		return w.active
	}
	return w.active + time.Since(w.resumed)
}

func (w *window) full() bool { return w.elapsed() >= w.limit }

// observe records one job as the client saw it.
func (w *window) observe(lat time.Duration, events int64, err error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.jobs++
	if err != nil {
		w.failed++
		lat = failedLatency
	}
	w.events += events
	w.lats = append(w.lats, lat)
}

// addJobs counts jobs answered without a client-visible call (attack's
// in-run memo hits), which have no latency sample.
func (w *window) addJobs(n int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.jobs += n
}

func (w *window) jobsPerS() float64 { return float64(w.jobs) / w.active.Seconds() }

func (w *window) eventsPerS() float64 { return float64(w.events) / w.active.Seconds() }

// tail returns the p99 latency and the quantile it really is: with fewer
// than 1,000 samples, the window's highest percentile that still has ten
// samples beyond it.
func (w *window) tail() (time.Duration, float64) {
	n := len(w.lats)
	if n == 0 {
		return 0, 0.99
	}
	p := 0.99
	if float64(n)*(1-p) < 10 {
		p = math.Max(0.5, 1-10/float64(n))
	}
	return quantile(w.lats, p), p
}

func quantile(xs []time.Duration, p float64) time.Duration {
	s := append([]time.Duration(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(p*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func medianDuration(xs []time.Duration) time.Duration {
	if len(xs) == 0 {
		return 0
	}
	return quantile(xs, 0.5)
}

// metric is one named measurement of the final JSON line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// layerMetrics lists the per-layer metrics with their units, in report
// order. Times are per job of the traced window unless the name says
// otherwise; NOTES.md defines each one.
var layerMetrics = []struct{ name, unit string }{
	{"sim.run_us", "us"},
	{"sim.ns_per_event", "ns"},
	{"sim.allocs_per_event", "count"},
	{"sim.bytes_per_event", "B"},
	{"sim.cancel_ratio", "ratio"},
	{"sim.cancels", "count"},
	{"sim.scheduled", "count"},
	{"sim.queue_hwm", "count"},
	{"netlist.compile_us", "us"},
	{"server.handle_us", "us"},
	{"server.self_us", "us"},
	{"server.sim_us", "us"},
	{"server.sim_runs", "count"},
	{"server.queue_wait_us", "us"},
	{"server.cache_hit_ratio", "ratio"},
	{"server.cache_hits", "count"},
	{"server.submits", "count"},
	{"http.roundtrip_us", "us"},
	{"http.self_us", "us"},
	{"http.roundtrips", "count"},
	{"cluster.self_us", "us"},
	{"cluster.attempts_per_job", "ratio"},
	{"cluster.attempt_failures", "count"},
	{"cluster.jobs", "count"},
	{"fault.execute_us", "us"},
	{"lake.open_s", "s"},
	{"lake.hit_ratio", "ratio"},
	{"lake.hits", "count"},
	{"lake.put_errors", "count"},
	{"attack.gen_ms", "ms"},
	{"attack.dedup_ratio", "ratio"},
	{"attack.deduped", "count"},
	{"attack.evals", "count"},
	{"runtime.allocs_per_job", "count"},
	{"runtime.bytes_per_job", "B"},
	{"runtime.gc_cycles", "count"},
	{"trace.overhead_ratio", "ratio"},
}

// result is one run's outcome.
type result struct {
	setups    []time.Duration
	lakeOpens []time.Duration
	plain     window // tracing off: the end-to-end numbers
	traced    window // tracing on (--trace 1 only): the per-layer numbers

	// layers holds per-layer values the workload measured directly; the
	// rest of the per-layer set is derived in finish.
	layers   map[string]float64
	counters counters // fleet counter deltas over the traced window
	sims     simAcc   // direct sim.Run measurements
	tr       *tracer

	digest    string
	attempted int
	failed    int
	problems  []string
	report    []string
	metrics   map[string]metric
}

func newResult(cfg config) *result {
	r := &result{layers: map[string]float64{}, counters: counters{}}
	limit := time.Duration(cfg.seconds * float64(time.Second))
	r.plain.limit, r.traced.limit = limit, limit
	if cfg.trace {
		r.tr = &tracer{}
	}
	return r
}

// window returns the window a job observed now belongs to.
func (r *result) window() *window {
	if r.tr.enabled() {
		return &r.traced
	}
	return &r.plain
}

// fail records a failed check.
func (r *result) fail(format string, args ...any) {
	r.attempted++
	r.failed++
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// check records one output check.
func (r *result) check(ok bool, format string, args ...any) {
	if ok {
		r.attempted++
		return
	}
	r.fail(format, args...)
}

func (r *result) note(format string, args ...any) {
	r.report = append(r.report, fmt.Sprintf(format, args...))
}

func (r *result) correct() bool { return r.failed == 0 }

// finish derives the metrics of the final line and the report lines that
// give their bases.
func (r *result) finish(cfg config) {
	for _, w := range []*window{&r.plain, &r.traced} {
		r.attempted += w.jobs
		r.failed += w.failed
	}
	if r.plain.jobs == 0 || r.plain.active <= 0 {
		r.fail("no job completed in the timed window")
		return
	}
	if n := r.plain.failed + r.traced.failed; n > 0 {
		r.problems = append(r.problems, fmt.Sprintf("%d jobs failed", n))
	}
	r.note("digest %s", r.digest)
	if want := pinned[cfg.workload]; cfg.seed == defaultSeed && want != "" {
		r.check(r.digest == want, "digest %s differs from the pinned %s", r.digest, want)
	}
	r.metrics = map[string]metric{}
	if !cfg.trace {
		r.endToEnd()
		return
	}
	if r.traced.jobs == 0 {
		r.fail("no job completed in the traced window")
		return
	}
	r.perLayer(cfg.workload)
}

func (r *result) endToEnd() {
	w := &r.plain
	p99, q := w.tail()
	r.metrics["setup_s"] = metric{medianDuration(r.setups).Seconds(), "s"}
	r.metrics["jobs_per_s"] = metric{w.jobsPerS(), "1/s"}
	r.metrics["job_p50_ms"] = metric{ms(medianDuration(w.lats)), "ms"}
	r.metrics["job_p99_ms"] = metric{ms(p99), "ms"}
	r.metrics["events_per_s"] = metric{w.eventsPerS(), "1/s"}
	r.metrics["max_rss_mb"] = metric{maxRSSMB(), "MB"}
	r.note("setup: %d samples, median %.4f s", len(r.setups), medianDuration(r.setups).Seconds())
	r.note("window: %.3f s timed, %d jobs, %d latency samples, %d failed (fail_ratio %d/%d)",
		w.active.Seconds(), w.jobs, len(w.lats), w.failed, w.failed, w.jobs)
	r.note("job_p99_ms is the p%.2f latency of %d samples: %d lie beyond it", 100*q, len(w.lats), len(w.lats)-int(math.Ceil(q*float64(len(w.lats)))))
	r.note("events: %d delivered in the window", w.events)
}

func (r *result) perLayer(workload string) {
	w := &r.traced
	vals := r.layers
	jobs := float64(r.tr.jobs())
	r.tr.layers(vals)
	r.sims.layers(vals)
	r.counters.layers(vals, jobs)
	vals["server.self_us"] = vals["server.handle_us"] - vals["server.sim_us"]
	if workload == "sweep" {
		vals["fault.execute_us"] = vals["job_us"] // the job span is the fault.Executor call
	}
	vals["lake.open_s"] = medianDuration(r.lakeOpens).Seconds()
	vals["runtime.allocs_per_job"] = float64(w.mallocs) / float64(w.jobs)
	vals["runtime.bytes_per_job"] = float64(w.bytes) / float64(w.jobs)
	vals["runtime.gc_cycles"] = float64(w.gcs)
	tracedJobs, plainJobs := w.jobsPerS(), r.plain.jobsPerS()
	if plainJobs > 0 {
		vals["trace.overhead_ratio"] = 1 - tracedJobs/plainJobs
	}
	for _, m := range layerMetrics {
		r.metrics[m.name] = metric{vals[m.name], m.unit}
	}
	r.note("tracing: %.1f jobs/s untraced, %.1f jobs/s traced (overhead %.1f%%)",
		plainJobs, tracedJobs, 100*vals["trace.overhead_ratio"])
	r.note("ratio bases: sim.cancel_ratio %.0f/%.0f, server.cache_hit_ratio %.0f/%.0f, lake.hit_ratio %.0f/%.0f, cluster.attempts_per_job %.0f/%.0f, attack.dedup_ratio %.0f/%.0f",
		vals["sim.cancels"], vals["sim.scheduled"], vals["server.cache_hits"], vals["server.submits"],
		vals["lake.hits"], vals["server.submits"], vals["http.roundtrips"], vals["cluster.jobs"],
		vals["attack.deduped"], vals["attack.evals"])
	r.note("per-job means over %d traced jobs; sim.* and netlist.* over %d direct runs", r.tr.jobs(), r.sims.n)
	r.note("layer split (us per job): job %.1f = cluster self %.1f + http self %.1f + server self %.1f (of which compile %.1f) + server sim %.1f; direct sim.Run %.1f",
		vals["job_us"], vals["cluster.self_us"], vals["http.self_us"], vals["server.self_us"],
		vals["netlist.compile_us"], vals["server.sim_us"], vals["sim.run_us"])
}

// print writes the report and, last, the JSON result line.
func (r *result) print(w io.Writer, cfg config) error {
	for _, line := range r.report {
		fmt.Fprintln(w, line)
	}
	if r.tr != nil {
		if err := r.tr.write(cfg.spans); err != nil {
			return err
		}
		fmt.Fprintf(w, "spans: %s\n", cfg.spans)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.correct(), r.attempted, r.failed, r.metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
