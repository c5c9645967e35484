// Package server implements simulation-as-a-service: the HTTP/NDJSON
// engine behind cmd/simd. Jobs — a netlist or a built-in circuit name plus
// channel/adversary/horizon/budget parameters — are POSTed to /v1/jobs,
// validated and canonicalized into a content-addressed form, answered from
// a bounded LRU result cache when an identical request already ran, and
// otherwise executed on a bounded worker pool with per-job isolation: a
// panicking or runaway simulation becomes a typed aborted job record, never
// a dead server.
//
// Endpoints:
//
//	POST /v1/jobs            submit (?wait=1 blocks, ?stream=trace holds the
//	                         response open streaming the live event trace;
//	                         disconnecting a streaming submit cancels the job)
//	GET  /v1/jobs            list job records (without result payloads)
//	GET  /v1/jobs/{id}       one job record, result payload included
//	GET  /v1/jobs/{id}/trace follow the job's event trace as JSONL
//	GET  /v1/circuits        built-in circuits and their adversaries
//	GET  /healthz            liveness (503 while draining)
//	GET  /version            service and build identity
//	GET  /metrics            Prometheus text exposition (simd_* metrics)
package server

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"involution/internal/admission"
	"involution/internal/lake"
	"involution/internal/obs"
	"involution/internal/obs/tracing"
	"involution/internal/sched"
	"involution/internal/server/api"
	"involution/internal/sim"
	"involution/internal/splitmix"
)

// DefaultHorizon is the simulated-time bound applied when a request leaves
// Request.Horizon zero.
const DefaultHorizon = 100

// maxRequestBytes bounds the submit body (netlists are text; 16 MiB is
// generous).
const maxRequestBytes = 16 << 20

// Config parametrizes a Server. The zero value is usable: every field has
// a default.
type Config struct {
	// Workers is the simulation worker-pool size (default: GOMAXPROCS).
	Workers int
	// QueueDepth bounds the number of queued-but-not-running jobs; full
	// queues reject submits with 503 (default 64).
	QueueDepth int
	// CacheBytes bounds the RAM result cache by the total bytes of cached
	// payloads — one huge trace can't blow memory while tiny results
	// under-fill the cache (default 32 MiB; 0 uses the default, negative
	// disables caching).
	CacheBytes int64
	// Lake is an optional persistent content-addressed result store
	// mounted as the second cache tier under the RAM LRU: lake hits are
	// promoted to RAM, completed misses are written through, and the
	// accumulated results survive restarts (simd -lake). The server does
	// not own the lake's lifecycle — the caller opens and closes it.
	Lake *lake.Lake
	// Registry receives the simd_* metrics (default: a fresh registry).
	Registry *obs.Registry
	// Version is reported by GET /version (default "dev").
	Version string
	// Advertise is the address the node believes it serves on; it is
	// echoed in /healthz and /version so coordinators can verify they
	// reached the node they routed to (empty: omitted). It also labels the
	// node's trace spans, so cross-node timelines name real addresses.
	Advertise string
	// FlightOff turns the flight recorder off. The recorder keeps the 32
	// slowest and the 64 most recent aborted jobs and backs GET /debug/jobs
	// with full span trees; without it per-job tracing is off entirely,
	// restoring the zero-allocation submit path.
	FlightOff bool
	// Admission is the multi-tenant admission controller (API keys, rate
	// limits, event budgets). Nil admits everything — the single-user
	// default.
	Admission *admission.Controller
}

// Retry-After bases and spreads (seconds) for 503/429 responses so polite
// clients — including cluster.Client — can back off without guessing: a
// full queue clears quickly, a draining server never comes back (its
// replacement does). Each response adds a jittered extra in [0, spread] so
// a fleet of clients refused in the same instant does not return in the
// same instant — the thundering-herd de-synchronizer.
const (
	retryQueueFullBase   = 1
	retryQueueFullSpread = 2
	retryDrainingBase    = 60
	retryDrainingSpread  = 30
)

// Server is the simulation service. Create with New, mount Handler, and
// Drain on shutdown.
type Server struct {
	cfg      Config
	reg      *obs.Registry
	met      *metrics
	pool     *sched.Pool
	cache    *lru[cachedResult]      // canonical hash → result bytes
	memo     *lru[memoEntry]         // raw body bytes → canonical hash (submit fast path)
	netlists *lru[*compiledNetlist]  // netlist text → built circuit
	lk       *lake.Lake              // nil: RAM tier only
	flight   *tracing.FlightRecorder // nil: tracing disabled
	node     string                  // span node label (Advertise or "simd")

	admit *admission.Controller // nil: permissive
	// ewmaSim is an EWMA of recent sim-run wall time (float64 seconds as
	// bits) — the per-job service-time estimate behind deadline-aware
	// shedding.
	ewmaSim atomic.Uint64
	// jitter is the splitmix64 state behind Retry-After jitter. Seeded with
	// a fixed constant: deterministic for tests, still decorrelated across
	// responses.
	jitter atomic.Uint64

	// baseCtx parents every job context; Drain cancels it to convert
	// stragglers into typed canceled aborts.
	baseCtx    context.Context
	baseCancel context.CancelFunc
	draining   atomic.Bool

	mu       sync.Mutex
	builtins []Builtin
	jobs     map[string]*job
	order    []string // job IDs in submission order
	lastID   int64
}

// New returns a ready-to-serve Server.
func New(cfg Config) *Server {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.CacheBytes == 0 {
		cfg.CacheBytes = 32 << 20
	}
	if cfg.Registry == nil {
		cfg.Registry = obs.NewRegistry()
	}
	if cfg.Version == "" {
		cfg.Version = "dev"
	}
	s := &Server{
		cfg:      cfg,
		reg:      cfg.Registry,
		pool:     sched.NewPool(cfg.Workers, cfg.QueueDepth),
		cache:    newLRU[cachedResult](cfg.CacheBytes),
		memo:     newLRU[memoEntry](canonMemoMax),
		netlists: newLRU[*compiledNetlist](netlistMemoBytes),
		lk:       cfg.Lake,
		builtins: defaultBuiltins(),
		jobs:     make(map[string]*job),
		node:     cfg.Advertise,
		admit:    cfg.Admission,
	}
	if s.node == "" {
		s.node = "simd"
	}
	if !cfg.FlightOff {
		s.flight = tracing.NewFlightRecorder(32, 64)
	}
	s.met = newMetrics(s.reg)
	obs.RegisterBuildInfo(s.reg, "simd", cfg.Version)
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())
	return s
}

// Handler returns the service's HTTP mux.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /version", s.handleVersion)
	mux.Handle("GET /metrics", s.metricsHandler())
	mux.HandleFunc("GET /v1/circuits", s.handleCircuits)
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleTrace)
	mux.HandleFunc("GET /debug/jobs", s.handleDebugJobs)
	return mux
}

// writeJSON writes v as one line of compact JSON. A record's result goes
// out as the exact bytes its ResultHash was taken over.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	h := api.Health{
		Status:    "ok",
		Advertise: s.cfg.Advertise,
		Queue:     s.pool.Depth(),
		Running:   s.pool.InFlight(),
		Width:     s.cfg.Workers,
		Shed:      s.met.capacitySheds(),
		Throttled: s.met.quotaSheds(),
	}
	if s.draining.Load() {
		h.Status = "draining"
		w.Header().Set("Retry-After", s.retryAfter(retryDrainingBase, retryDrainingSpread))
		writeJSON(w, http.StatusServiceUnavailable, h)
		return
	}
	writeJSON(w, http.StatusOK, h)
}

func (s *Server) handleVersion(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, api.Version{
		Service: "simd", Version: s.cfg.Version, Advertise: s.cfg.Advertise,
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
	})
}

func (s *Server) handleCircuits(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"circuits": s.builtinList()})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	// Echo the client's content key so it can detect a wrong-job reply
	// (see api.ContentKeyHeader).
	if ck := r.Header.Get(api.ContentKeyHeader); ck != "" {
		w.Header().Set(api.ContentKeyHeader, ck)
	}
	if s.draining.Load() {
		s.met.shed(s.met.shedCapacity)
		w.Header().Set("Retry-After", s.retryAfter(retryDrainingBase, retryDrainingSpread))
		writeError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	t0 := time.Now()
	// Per-tenant rate admission runs before the body is even read: a
	// throttled flood costs one atomic compare-and-swap per request, not a
	// decode + compile.
	key := apiKey(r)
	if d := s.admit.AdmitRequest(key, t0); !d.OK {
		s.met.shed(s.met.shedRate)
		w.Header().Set("Retry-After", s.retryAfterQuota(d.RetryAfter))
		writeError(w, http.StatusTooManyRequests,
			fmt.Sprintf("tenant %q over request rate limit", d.Tenant))
		return
	}
	remote, _ := tracing.ParseTraceparent(r.Header.Get(tracing.TraceparentHeader))
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, "request body: "+err.Error())
		return
	}

	// Memoized fast path: this exact body already compiled once, so its
	// canonical hash is known without decoding, parsing, or re-marshaling
	// anything — a repeat hit costs one SHA-256 of the wire bytes plus two
	// map lookups. Entries exist only for bodies that compiled
	// successfully, so skipping validation here cannot admit a bad request.
	bodySum := sha256.Sum256(body)
	bodyKey := hex.EncodeToString(bodySum[:])
	if m, ok := s.memo.get(bodyKey); ok {
		if raw, rhash, tier, ok := s.cacheGet(m.hash); ok {
			s.met.submitted.Inc()
			s.serveCached(w, &compiled{hash: m.hash, name: m.name}, raw, rhash, tier, remote, t0)
			return
		}
	}

	var req Request
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "request body: "+err.Error())
		return
	}
	c, err := s.compile(req)
	if err != nil {
		var re *requestError
		if errors.As(err, &re) {
			writeError(w, http.StatusBadRequest, re.Error())
		} else {
			writeError(w, http.StatusInternalServerError, err.Error())
		}
		return
	}
	s.memo.put(bodyKey, memoEntry{hash: c.hash, name: c.name}, 1)
	s.met.submitted.Inc()

	q := r.URL.Query()
	streaming := q.Get("stream") == "trace"
	wantTrace := streaming || q.Get("trace") == "1"

	// Content-addressed fast path: an identical canonical request already
	// completed (this run or — via the lake — any previous run of this
	// node), so answer with the exact cached bytes (streaming and waiting
	// submits get the record immediately — there is nothing left to
	// follow).
	if raw, rhash, tier, ok := s.cacheGet(c.hash); ok {
		s.serveCached(w, c, raw, rhash, tier, remote, t0)
		return
	}
	s.met.cacheMisses.Inc()

	// The job will actually run: charge its simulated-event bound against
	// the tenant's CPU-proxy budget up front, so a conformant request rate
	// cannot buy unbounded compute. Cache hits above never reach this
	// charge — answering from memory is free.
	if d := s.admit.ChargeEvents(key, eventCost(c.req.MaxEvents), time.Now()); !d.OK {
		s.met.shed(s.met.shedBudget)
		w.Header().Set("Retry-After", s.retryAfterQuota(d.RetryAfter))
		writeError(w, http.StatusTooManyRequests,
			fmt.Sprintf("tenant %q over simulated-event budget", d.Tenant))
		return
	}

	// Deadline-aware shed: accepting a job we cannot plausibly start inside
	// the client's budget wastes a queue slot on an answer nobody will be
	// around to read. Estimated wait = jobs ahead × EWMA service time ÷
	// effective width.
	if dl := clientDeadline(r); dl > 0 {
		if est := s.estQueueWait(); est > dl {
			s.met.shed(s.met.shedDeadline)
			w.Header().Set("Retry-After", s.retryAfter(retryQueueFullBase, retryQueueFullSpread))
			writeError(w, http.StatusServiceUnavailable,
				fmt.Sprintf("deadline infeasible: estimated queue wait %v exceeds deadline %v",
					est.Round(time.Millisecond), dl))
			return
		}
	}

	j := s.register(c, wantTrace)
	s.beginTrace(j, remote, t0)
	j.traceCacheLookup(false)
	j.traceEnqueue()
	if err := s.pool.Submit(func() { s.runJob(j) }); err != nil {
		s.unregister(j)
		s.met.shed(s.met.shedCapacity)
		if errors.Is(err, sched.ErrQueueFull) {
			s.met.queueFull.Inc()
			w.Header().Set("Retry-After", s.retryAfter(retryQueueFullBase, retryQueueFullSpread))
		} else {
			w.Header().Set("Retry-After", s.retryAfter(retryDrainingBase, retryDrainingSpread))
		}
		writeError(w, http.StatusServiceUnavailable, err.Error())
		return
	}

	switch {
	case streaming:
		// Hold the response open following the live trace. The request
		// context ends if the client disconnects mid-stream; canceling the
		// job then turns it into a typed canceled abort instead of wasted
		// work. (After a normal end-of-stream the cancel is a no-op: the
		// job already finished.)
		stop := context.AfterFunc(r.Context(), j.cancel)
		defer stop()
		w.Header().Set("X-Job-Id", j.snapshot().ID)
		s.streamTrace(w, r, j)
	case q.Get("wait") == "1":
		// A waiting client that disconnects while its job is still queued
		// has its job canceled — the slot goes to a request someone is
		// still waiting for. A job that already started keeps running (its
		// result is cacheable either way).
		stop := context.AfterFunc(r.Context(), func() {
			if j.cancelIfQueued() {
				s.met.shed(s.met.shedDisconnect)
			}
		})
		defer stop()
		select {
		case <-j.done:
			writeJSON(w, http.StatusOK, j.snapshot())
		case <-r.Context().Done():
			// Client went away while waiting; see the AfterFunc above.
		}
	default:
		writeJSON(w, http.StatusAccepted, j.snapshot())
	}
}

// cacheGet is the tiered content-addressed lookup: RAM LRU first, then
// the persistent lake. Lake hits are promoted to RAM so a hot key pays
// the disk read (and its integrity verification) once; the returned
// payload was hash-verified by the lake, so promotion cannot launder a
// corrupt record into the RAM tier. The lake holds the compact bytes
// store wrote, so their result hash needs no compaction.
func (s *Server) cacheGet(hash string) (raw json.RawMessage, rhash, tier string, ok bool) {
	if e, ok := s.cache.get(hash); ok {
		return e.raw, e.hash, api.TierMem, true
	}
	if s.lk != nil {
		if payload, ok := s.lk.Get(hash); ok {
			rhash := api.ResultHashOfCompact(payload)
			s.cache.put(hash, cachedResult{raw: payload, hash: rhash}, int64(len(payload)))
			return payload, rhash, api.TierLake, true
		}
	}
	return nil, "", "", false
}

// serveCached answers a submit with cached result bytes: the job record
// is terminal at birth, carries the exact payload of the first run, and
// names the tier that produced it.
func (s *Server) serveCached(w http.ResponseWriter, c *compiled, raw json.RawMessage, rhash, tier string, remote tracing.SpanContext, t0 time.Time) {
	s.countHit(tier)
	j := s.register(c, false)
	s.beginTrace(j, remote, t0)
	j.traceCacheLookup(true)
	now := time.Now()
	j.mu.Lock()
	j.rec.Status = StatusCompleted
	j.rec.Cached = true
	j.rec.CacheTier = tier
	j.rec.Finished = &now
	j.rec.Result = raw
	j.rec.ResultHash = rhash
	j.mu.Unlock()
	s.finishTrace(j, now, StatusCompleted, "")
	close(j.done)
	writeJSON(w, http.StatusOK, j.snapshot())
}

// countHit counts a cache hit by the tier that answered it. The tier rides
// in the metric name (simd_cache_hits_<tier>_total) since the registry has
// no labels; simd_cache_hits_total stays the rollup.
func (s *Server) countHit(tier string) {
	if tier == api.TierLake {
		s.met.cacheHitsLake.Inc()
	} else {
		s.met.cacheHitsMem.Inc()
	}
	s.met.cacheHits.Inc()
}

// apiKey extracts the tenant key from the X-Api-Key header, falling back
// to an Authorization bearer token. Empty means anonymous.
func apiKey(r *http.Request) string {
	if k := r.Header.Get(api.APIKeyHeader); k != "" {
		return k
	}
	if auth := r.Header.Get("Authorization"); len(auth) > 7 && strings.EqualFold(auth[:7], "Bearer ") {
		return strings.TrimSpace(auth[7:])
	}
	return ""
}

// clientDeadline parses the X-Deadline-Ms header (0: no deadline).
func clientDeadline(r *http.Request) time.Duration {
	ms, err := strconv.ParseInt(r.Header.Get(api.DeadlineHeader), 10, 64)
	if err != nil || ms <= 0 {
		return 0
	}
	return time.Duration(ms) * time.Millisecond
}

// eventCost is the tenant-budget charge of a submit: its event bound, with
// the simulator default applied when the request leaves it zero — an
// unbounded request costs the default budget, not nothing.
func eventCost(maxEvents int) int64 {
	if maxEvents <= 0 {
		return sim.DefaultMaxEvents
	}
	return int64(maxEvents)
}

// jitterN draws a uniform integer in [0, n] from the seeded splitmix64
// stream — the thundering-herd de-synchronizer behind Retry-After.
func (s *Server) jitterN(n int) int {
	if n <= 0 {
		return 0
	}
	z := splitmix.Mix(s.jitter.Add(splitmix.Gamma))
	return int(z % uint64(n+1))
}

// retryAfter renders a jittered Retry-After value in [base, base+spread]
// seconds.
func (s *Server) retryAfter(base, spread int) string {
	return strconv.Itoa(base + s.jitterN(spread))
}

// retryAfterQuota renders the Retry-After for a quota (429) refusal: the
// limiter's own conformance wait, rounded up to whole seconds, plus up to
// 2s of jitter so a synchronized tenant fleet spreads out on return.
func (s *Server) retryAfterQuota(wait time.Duration) string {
	secs := int(math.Ceil(wait.Seconds()))
	if secs < 1 {
		secs = 1
	}
	return strconv.Itoa(secs + s.jitterN(2))
}

// observeSimTime folds one sim-run duration into the EWMA service-time
// estimate (α = 0.2).
func (s *Server) observeSimTime(d time.Duration) {
	for {
		old := s.ewmaSim.Load()
		prev := math.Float64frombits(old)
		next := d.Seconds()
		if old != 0 {
			next = 0.8*prev + 0.2*next
		}
		if s.ewmaSim.CompareAndSwap(old, math.Float64bits(next)) {
			return
		}
	}
}

// estQueueWait estimates how long a submit accepted now would wait for a
// worker: jobs ahead of it × EWMA service time ÷ worker count.
// Zero until the first job finishes — a cold server sheds nothing on
// deadline grounds.
func (s *Server) estQueueWait() time.Duration {
	ewma := math.Float64frombits(s.ewmaSim.Load())
	if ewma <= 0 {
		return 0
	}
	ahead := float64(s.pool.Depth() + 1)
	return time.Duration(ahead * ewma / float64(s.cfg.Workers) * float64(time.Second))
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	js := make([]*job, 0, len(s.order))
	for _, id := range s.order {
		js = append(js, s.jobs[id])
	}
	s.mu.Unlock()
	recs := make([]Record, len(js))
	for i, j := range js {
		recs[i] = j.snapshot()
		recs[i].Result = nil // keep the listing light; fetch /v1/jobs/{id} for payloads
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": recs})
}

func (s *Server) lookup(id string) (*job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	writeJSON(w, http.StatusOK, j.snapshot())
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	if j.trace == nil {
		writeError(w, http.StatusConflict, "job was submitted without tracing (use ?trace=1 or ?stream=trace)")
		return
	}
	s.streamTrace(w, r, j)
}

// streamTrace follows the job's trace buffer to the response as NDJSON
// until the job finishes or the client disconnects.
func (s *Server) streamTrace(w http.ResponseWriter, r *http.Request, j *job) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	fl, _ := w.(http.Flusher)
	if fl != nil {
		fl.Flush()
	}
	stop := j.trace.followBroadcast(r.Context())
	defer stop()
	off := 0
	for {
		chunk, done := j.trace.next(r.Context(), off)
		if len(chunk) > 0 {
			if _, err := w.Write(chunk); err != nil {
				return
			}
			off += len(chunk)
			if fl != nil {
				fl.Flush()
			}
		}
		if done {
			return
		}
	}
}

// register allocates a job ID and inserts the queued job record.
func (s *Server) register(c *compiled, withTrace bool) *job {
	ctx, cancel := context.WithCancel(s.baseCtx)
	j := &job{c: c, ctx: ctx, cancel: cancel, done: make(chan struct{})}
	if withTrace {
		j.trace = newTraceBuf()
	}
	s.mu.Lock()
	s.lastID++
	id := fmt.Sprintf("job-%06d", s.lastID)
	j.rec = Record{
		ID:        id,
		Circuit:   c.name,
		Hash:      c.hash,
		Status:    StatusQueued,
		Trace:     withTrace,
		Submitted: time.Now(),
	}
	s.jobs[id] = j
	s.order = append(s.order, id)
	s.mu.Unlock()
	return j
}

// unregister removes a job that never made it into the queue.
func (s *Server) unregister(j *job) {
	j.cancel()
	id := j.snapshot().ID
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.jobs, id)
	// The refused job was appended last, modulo concurrent submits: scan
	// from the back so a 503 costs O(1), not O(jobs ever submitted).
	for i := len(s.order) - 1; i >= 0; i-- {
		if s.order[i] == id {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
}

// runJob executes one job on a pool worker: queue-wait accounting, then
// execute and finishJob. The pool's own recover is the last resort that
// keeps the worker alive.
func (s *Server) runJob(j *job) {
	start := time.Now()
	j.mu.Lock()
	j.rec.Status = StatusRunning
	j.rec.Started = &start
	submitted := j.rec.Submitted
	j.mu.Unlock()
	s.met.queueWait.Observe(start.Sub(submitted).Seconds())

	// Fast release: a job canceled while it was still queued (waiting
	// client disconnected, or Drain timed out) gives its worker slot back
	// immediately instead of starting a simulation nobody wants.
	if j.ctx.Err() != nil {
		s.finishJob(j, start, ResultPayload{
			Status:   StatusAborted,
			Class:    string(sim.ClassCanceled),
			Error:    "server: job canceled while queued",
			ExitCode: sim.ExitCode(sim.ClassCanceled),
			Horizon:  j.c.req.Horizon,
		})
		return
	}

	var simSp *tracing.Span
	if j.tr != nil {
		j.tr.queue.EndAt(start)
		simSp = j.tr.tracer.StartChild(j.tr.root, "sim")
	}
	var observer sim.Observer
	if j.trace != nil {
		observer = newLiveTrace(j.trace)
	}
	p := s.execute(j.ctx, j.c, observer)
	if simSp != nil {
		simSp.SetAttrs(
			tracing.Int("scheduled", p.Stats.Scheduled),
			tracing.Int("delivered", p.Stats.Delivered),
			tracing.Int("delta_cycles", p.Stats.DeltaCycles),
		)
		if p.Status == StatusAborted {
			simSp.SetAbort(p.Class)
		}
		simSp.End()
	}
	s.finishJob(j, start, p)
}

// execute runs one compiled request and assembles its result payload:
// outputs from the circuit's output ports, the wall-clock duration
// scrubbed, aborts typed by class and exit code. sim.Run converts
// in-simulation panics into typed aborts itself; the deferred recover
// here catches anything around it (observer plumbing, result assembly).
func (s *Server) execute(ctx context.Context, c *compiled, observer sim.Observer) (p ResultPayload) {
	defer func() {
		if r := recover(); r != nil {
			p = ResultPayload{
				Status:   StatusAborted,
				Class:    string(sim.ClassPanic),
				Error:    fmt.Sprintf("server: panic while running job: %v", r),
				ExitCode: sim.ExitPanic,
				Horizon:  c.req.Horizon,
			}
		}
	}()
	simStart := time.Now()
	res, err := sim.Run(c.circuit, c.inputs, sim.Options{
		Horizon:   c.req.Horizon,
		MaxEvents: c.req.MaxEvents,
		Deadline:  c.deadline(),
		Context:   ctx,
		Observer:  observer,
	})
	took := time.Since(simStart)
	s.met.simRun.Observe(took.Seconds())
	s.observeSimTime(took)

	if err == nil {
		outs := make(map[string]string)
		for _, name := range c.circuit.Outputs() {
			outs[name] = res.Signals[name].String()
		}
		stats := res.Stats
		stats.Duration = 0 // scrubbed for cache determinism; see ResultPayload
		return ResultPayload{
			Status:   StatusCompleted,
			ExitCode: sim.ExitOK,
			Events:   res.Events,
			Horizon:  res.Horizon,
			Outputs:  outs,
			Stats:    stats,
		}
	}
	p = ResultPayload{
		Status:   StatusAborted,
		Class:    string(sim.ClassOther),
		Error:    err.Error(),
		ExitCode: sim.ExitAbort,
		Horizon:  c.req.Horizon,
	}
	var ab *sim.AbortError
	if errors.As(err, &ab) {
		p.Class, p.Error, p.ExitCode, p.Stats = string(ab.Class()), ab.Error(), sim.ExitCode(ab.Class()), ab.Stats
	}
	return p
}

// store encodes a finished payload and hashes the bytes every client
// receives — json.Marshal output is compact, so they are hashed as they
// are — then feeds the cache tiers and outcome counters. Only
// completed results are cached: an abort may depend on wall-clock budgets
// or cancellation, a completed result is a pure function of the canonical
// request. An unencodable payload is replaced by a typed abort.
func (s *Server) store(c *compiled, p *ResultPayload) (json.RawMessage, string) {
	raw, err := json.Marshal(p)
	if err != nil {
		*p = ResultPayload{
			Status: StatusAborted, Class: string(sim.ClassOther),
			Error: "server: result encoding: " + err.Error(), ExitCode: sim.ExitAbort,
		}
		raw, _ = json.Marshal(p)
	}
	rhash := api.ResultHashOfCompact(raw)
	if p.Status != StatusCompleted {
		s.met.aborted.Inc()
		return raw, rhash
	}
	s.cache.put(c.hash, cachedResult{raw: raw, hash: rhash}, int64(len(raw)))
	// Write-through: a completed result is durable forever. A lake write
	// failure (disk full, IO error) only costs future hits — the response
	// already in flight is unaffected.
	if s.lk != nil {
		if err := s.lk.Put(c.hash, c.name, c.req.Adversary, raw); err != nil {
			s.met.lakePutErrors.Inc()
		}
	}
	s.met.completed.Inc()
	return raw, rhash
}

// finishJob stores the result, records the terminal state and releases
// waiters.
func (s *Server) finishJob(j *job, start time.Time, p ResultPayload) {
	raw, rhash := s.store(j.c, &p)
	end := time.Now()
	j.mu.Lock()
	j.rec.Status = p.Status
	j.rec.Class = p.Class
	j.rec.Error = p.Error
	j.rec.Finished = &end
	j.rec.Result = raw
	j.rec.ResultHash = rhash
	j.mu.Unlock()
	s.met.latency.Observe(end.Sub(start).Seconds())
	s.finishTrace(j, end, p.Status, p.Class)
	if j.trace != nil {
		j.trace.close()
	}
	j.cancel() // release the context's resources
	close(j.done)
}

// RunOne evaluates one request in-process along simd's own job path —
// compile, tiered cache lookup, execute on the caller's goroutine, store —
// so the record is exactly what a node would return for the same request,
// minus the job-table fields (ID, timestamps): *Server is an
// attack.Evaluator. A request that fails validation returns an error, the
// way a node's 400 becomes a cluster.Coordinator error.
func (s *Server) RunOne(ctx context.Context, req Request) (Record, error) {
	c, err := s.compile(req)
	if err != nil {
		return Record{}, err
	}
	s.met.submitted.Inc()
	rec := Record{Circuit: c.name, Hash: c.hash}
	if raw, rhash, tier, ok := s.cacheGet(c.hash); ok {
		s.countHit(tier)
		rec.Status, rec.Cached, rec.CacheTier = StatusCompleted, true, tier
		rec.Result, rec.ResultHash = raw, rhash
		return rec, nil
	}
	s.met.cacheMisses.Inc()
	p := s.execute(ctx, c, nil)
	rec.Result, rec.ResultHash = s.store(c, &p)
	rec.Status, rec.Class, rec.Error = p.Status, p.Class, p.Error
	return rec, nil
}

// Drain stops accepting submissions and waits for queued and running jobs
// to finish. Jobs still running after timeout have their contexts canceled
// and finish as typed canceled aborts; timeout <= 0 waits indefinitely.
// The server cannot accept jobs again after Drain.
func (s *Server) Drain(timeout time.Duration) {
	s.draining.Store(true)
	done := make(chan struct{})
	go func() {
		s.pool.Close()
		close(done)
	}()
	if timeout > 0 {
		select {
		case <-done:
		case <-time.After(timeout):
			s.baseCancel()
			<-done
		}
	} else {
		<-done
	}
	s.baseCancel()
}

// WriteJobRecords writes every job record as JSONL in submission order —
// the drain-time flush behind cmd/simd's -jobs-json flag.
func (s *Server) WriteJobRecords(w io.Writer) error {
	s.mu.Lock()
	js := make([]*job, 0, len(s.order))
	for _, id := range s.order {
		js = append(js, s.jobs[id])
	}
	s.mu.Unlock()
	enc := json.NewEncoder(w)
	for _, j := range js {
		if err := enc.Encode(j.snapshot()); err != nil {
			return err
		}
	}
	return nil
}
