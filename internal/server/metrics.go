package server

import (
	"net/http"

	"involution/internal/admission"
	"involution/internal/obs"
)

// metrics bundles the service's simd_* instruments. Counters are bumped at
// the event sites; the instantaneous gauges (queue depth, in-flight jobs,
// cache occupancy, hit ratio) are refreshed at scrape time so /metrics is
// consistent without a background sampler.
type metrics struct {
	submitted *obs.Counter
	completed *obs.Counter
	aborted   *obs.Counter
	// Cache hits are a two-tier family: the rollup plus one counter per
	// tier (the registry has no label support, so the tier rides in the
	// name — simd_cache_hits_<tier>_total, mirroring the shed family).
	cacheHits     *obs.Counter
	cacheHitsMem  *obs.Counter
	cacheHitsLake *obs.Counter
	cacheMisses   *obs.Counter
	lakePutErrors *obs.Counter
	queueFull     *obs.Counter
	netlistHits   *obs.Counter
	netlistMisses *obs.Counter

	// The shed counter family: one counter per refusal reason (the registry
	// has no label support, so the reason rides in the name — the
	// simd_shed_<reason>_total convention) plus a rollup. rate and budget
	// are quota sheds (429); deadline, capacity and disconnect are capacity
	// sheds (503 or a freed slot).
	shedTotal      *obs.Counter
	shedRate       *obs.Counter
	shedBudget     *obs.Counter
	shedDeadline   *obs.Counter
	shedCapacity   *obs.Counter
	shedDisconnect *obs.Counter

	queueDepth     *obs.Gauge
	inFlight       *obs.Gauge
	cacheEntries   *obs.Gauge
	cacheBytes     *obs.Gauge
	cacheHitRatio  *obs.Gauge
	flightRecorded *obs.Gauge
	flightDropped  *obs.Gauge

	latency   *obs.Histogram
	queueWait *obs.Histogram
	simRun    *obs.Histogram
}

func newMetrics(reg *obs.Registry) *metrics {
	return &metrics{
		submitted:     reg.Counter("simd_jobs_submitted_total", "jobs accepted by POST /v1/jobs (including cache hits)"),
		completed:     reg.Counter("simd_jobs_completed_total", "jobs that ran to their horizon"),
		aborted:       reg.Counter("simd_jobs_aborted_total", "jobs that aborted (any sim abort class)"),
		cacheHits:     reg.Counter("simd_cache_hits_total", "submissions answered from any result-cache tier (sum of the simd_cache_hits_<tier>_total family)"),
		cacheHitsMem:  reg.Counter("simd_cache_hits_mem_total", "submissions answered from the in-process RAM LRU"),
		cacheHitsLake: reg.Counter("simd_cache_hits_lake_total", "submissions answered from the persistent result lake (and promoted to RAM)"),
		cacheMisses:   reg.Counter("simd_cache_misses_total", "submissions that had to run"),
		lakePutErrors: reg.Counter("simd_lake_put_errors_total", "completed results that failed to write through to the lake"),
		queueFull:     reg.Counter("simd_queue_full_total", "submissions rejected because the job queue was full"),
		netlistHits:   reg.Counter("simd_netlist_memo_hits_total", "netlist submissions that reused an already built circuit"),
		netlistMisses: reg.Counter("simd_netlist_memo_misses_total", "netlist submissions that had to parse and build their circuit"),

		shedTotal:      reg.Counter("simd_shed_total", "submissions shed for any reason (sum of the simd_shed_<reason>_total family)"),
		shedRate:       reg.Counter("simd_shed_rate_total", "submissions refused by a tenant's request-rate limit (429)"),
		shedBudget:     reg.Counter("simd_shed_budget_total", "submissions refused by a tenant's simulated-event budget (429)"),
		shedDeadline:   reg.Counter("simd_shed_deadline_total", "submissions shed because the estimated queue wait exceeded the client deadline (503)"),
		shedCapacity:   reg.Counter("simd_shed_capacity_total", "submissions shed because the queue was full or the server was draining (503)"),
		shedDisconnect: reg.Counter("simd_shed_disconnect_total", "queued jobs canceled because their waiting client disconnected"),

		queueDepth:     reg.Gauge("simd_queue_depth", "jobs waiting in the worker-pool queue"),
		inFlight:       reg.Gauge("simd_jobs_inflight", "jobs currently simulating"),
		cacheEntries:   reg.Gauge("simd_cache_entries", "results held by the RAM LRU cache"),
		cacheBytes:     reg.Gauge("simd_cache_bytes", "payload bytes held by the RAM LRU cache"),
		cacheHitRatio:  reg.Gauge("simd_cache_hit_ratio", "cache hits / (hits + misses) since start, all tiers"),
		flightRecorded: reg.Gauge("simd_flight_recorded_total", "finished jobs offered to the flight recorder"),
		flightDropped:  reg.Gauge("simd_flight_dropped_total", "flight-recorder offers dropped or evicted by the retention bounds"),

		latency: reg.Histogram("simd_job_latency_seconds", "wall-clock job latency from start to finish",
			obs.ExpBuckets(0.001, 4, 8)),
		queueWait: reg.Histogram("simd_queue_wait_seconds", "time between job admission and a worker picking it up",
			obs.ExpBuckets(1e-5, 4, 10)),
		simRun: reg.Histogram("simd_sim_run_seconds", "wall-clock time spent inside sim.Run",
			obs.ExpBuckets(1e-5, 4, 10)),
	}
}

// shed bumps the per-reason shed counter and the rollup.
func (m *metrics) shed(c *obs.Counter) {
	c.Inc()
	m.shedTotal.Inc()
}

// quotaSheds returns the total quota (429) refusals; capacitySheds the
// total capacity (503 / freed-slot) refusals. Both back /healthz.
func (m *metrics) quotaSheds() int64 {
	return m.shedRate.Value() + m.shedBudget.Value()
}

func (m *metrics) capacitySheds() int64 {
	return m.shedDeadline.Value() + m.shedCapacity.Value() + m.shedDisconnect.Value()
}

// refresh recomputes the instantaneous gauges from live server state.
func (m *metrics) refresh(s *Server) {
	m.queueDepth.Set(float64(s.pool.Depth()))
	// Publish one gauge set per tenant from the admission counters. Gauges
	// (not counters) because each scrape re-publishes a total, and the
	// registry's get-or-create makes the dynamic names cheap after first
	// sight.
	s.admit.Flush(func(name string, u admission.Usage) {
		sfx := obs.SanitizeMetricName(name)
		s.reg.Gauge("simd_tenant_admitted_"+sfx, "requests admitted for tenant "+name).Set(float64(u.Admitted))
		s.reg.Gauge("simd_tenant_shed_"+sfx, "requests refused (rate + budget) for tenant "+name).Set(float64(u.ShedRate + u.ShedBudget))
		s.reg.Gauge("simd_tenant_events_"+sfx, "simulated-event cost charged to tenant "+name).Set(float64(u.Events))
	})
	m.inFlight.Set(float64(s.pool.InFlight()))
	m.cacheEntries.Set(float64(s.cache.len()))
	m.cacheBytes.Set(float64(s.cache.size()))
	// Lake occupancy and integrity, published only when a lake is mounted.
	// The _total names are levels refreshed at scrape time (the
	// simd_flight_recorded_total precedent): the lake keeps its own
	// monotonic counts, and re-publishing them as gauges keeps /metrics
	// consistent without a second accounting path.
	if s.lk != nil {
		ls := s.lk.Stats()
		s.reg.Gauge("simd_lake_entries", "results held by the persistent lake").Set(float64(ls.Entries))
		s.reg.Gauge("simd_lake_bytes", "bytes held by the persistent lake's segments").Set(float64(ls.Bytes))
		s.reg.Gauge("simd_lake_segments", "segment files in the persistent lake").Set(float64(ls.Segments))
		s.reg.Gauge("simd_lake_corrupt_total", "lake reads that failed ResultHash verification and were quarantined").Set(float64(ls.Corrupt))
		s.reg.Gauge("simd_lake_gc_segments_total", "lake segments dropped by the byte-bound GC").Set(float64(ls.GCSegs))
	}
	hits, misses := float64(m.cacheHits.Value()), float64(m.cacheMisses.Value())
	ratio := 0.0
	if hits+misses > 0 {
		ratio = hits / (hits + misses)
	}
	m.cacheHitRatio.Set(ratio)
	recorded, dropped := s.flight.Stats() // nil-safe: 0/0 when tracing is off
	m.flightRecorded.Set(float64(recorded))
	m.flightDropped.Set(float64(dropped))
}

// metricsHandler refreshes the gauges and delegates to the registry's
// Prometheus text handler.
func (s *Server) metricsHandler() http.Handler {
	inner := s.reg.Handler()
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.met.refresh(s)
		inner.ServeHTTP(w, r)
	})
}
