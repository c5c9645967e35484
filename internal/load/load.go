// Package load is an open-loop load generator for simd nodes: it offers
// submits at a fixed rate (arrivals do not wait for completions — the
// defining property of millions-of-users traffic) with Zipf hot-key skew
// over a bounded request key space and optional tenant churn, and reports
// goodput, shed/throttle counts, latency quantiles and a strict "lost"
// account of accepted-but-unreturned jobs.
//
// The generator is the measurement half of the overload-protection story:
// internal/admission decides who gets in, load verifies from the outside
// that under k× capacity the node sheds the surplus quickly (429/503 with
// Retry-After) instead of letting queue wait destroy the latency of the
// jobs it did accept — and that nothing accepted is ever silently
// dropped.
package load

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"involution/internal/server/api"
)

// chainNetlist is the fixed job payload: a tiny deterministic circuit so
// job cost is dominated by scheduling, not simulation — the regime where
// admission control, not the simulator, is under test. Distinct request
// seeds defeat the result cache; repeated seeds (hot keys) hit it.
const chainNetlist = "circuit chain\ninput i\noutput o\ngate g BUF init=0\nchannel i g 0 exp tau=1 tp=0.5 vth=0.6\nchannel g o 0 zero\n"

// Profile configures one load run.
type Profile struct {
	// Addr is the node's base URL ("http://host:port").
	Addr string
	// Duration bounds the offering window (completions may land slightly
	// after it).
	Duration time.Duration
	// Rate is the offered submit rate per second (open loop).
	Rate float64
	// Clients is the submitter concurrency draining the arrival queue
	// (default 64). When every client is busy an arrival waits in a bounded
	// backlog; overflow is counted as Saturated, not silently dropped.
	Clients int
	// Tenants is the number of distinct tenant keys rotated through
	// (0: every submit is anonymous).
	Tenants int
	// Churn rotates the tenant key generation this often, so long runs
	// exercise the server's dynamic-tenant table and its eviction bound
	// (0: a single generation).
	Churn time.Duration
	// KeySpace is the number of distinct request contents (default 64).
	KeySpace int
	// ZipfS is the hot-key skew exponent: > 1 draws keys Zipf-distributed
	// (a few keys dominate, exercising the result cache under flood);
	// <= 1 draws uniformly.
	ZipfS float64
	// DeadlineMS stamps every submit with an X-Deadline-Ms budget
	// (0: none), arming the server's deadline-aware shedding.
	DeadlineMS int64
	// Horizon is the simulated horizon per job (default 30).
	Horizon float64
	// Seed fixes the arrival/key/tenant random streams.
	Seed int64
	// Timeout bounds each HTTP round trip (default 30s).
	Timeout time.Duration
}

func (p Profile) withDefaults() Profile {
	if p.Clients <= 0 {
		p.Clients = 64
	}
	if p.KeySpace <= 0 {
		p.KeySpace = 64
	}
	if p.Horizon <= 0 {
		p.Horizon = 30
	}
	if p.Timeout <= 0 {
		p.Timeout = 30 * time.Second
	}
	return p
}

// Result is the outcome of one load run. Counter semantics: every offered
// arrival lands in exactly one of Accepted (2xx with a terminal record),
// Lost (2xx without one — the server accepted and then went silent),
// ShedQuota (429), ShedCapacity (503), Errors (transport or other
// statuses) or Saturated (the generator's own backlog overflowed before
// the submit was sent).
type Result struct {
	Offered   int64 `json:"offered"`
	Accepted  int64 `json:"accepted"`
	Completed int64 `json:"completed"`
	Aborted   int64 `json:"aborted"`
	// CacheHits counts accepted jobs answered from the node's result cache.
	CacheHits int64 `json:"cache_hits"`
	// ShedQuota counts 429 refusals (tenant rate / event budget).
	ShedQuota int64 `json:"shed_quota"`
	// ShedCapacity counts 503 refusals (queue full, deadline infeasible,
	// draining).
	ShedCapacity int64 `json:"shed_capacity"`
	// RetryAfterMissing counts sheds that arrived without a Retry-After
	// header — a protocol bug when nonzero.
	RetryAfterMissing int64 `json:"retry_after_missing,omitempty"`
	// Lost counts accepted submits (2xx) whose body was not a terminal job
	// record: work the server took and failed to account for. The overload
	// contract requires this to be zero — shedding is fine, losing is not.
	Lost int64 `json:"lost"`
	// Errors counts transport failures and unexpected statuses.
	Errors int64 `json:"errors"`
	// Saturated counts arrivals dropped inside the generator because all
	// clients and the backlog were busy (the generator, not the server,
	// was the bottleneck — raise Clients if nonzero).
	Saturated int64 `json:"saturated,omitempty"`
	// Elapsed is the full wall-clock window including the completion drain.
	Elapsed time.Duration `json:"elapsed_ns"`
	// GoodputRPS is Accepted divided by Elapsed: terminal answers per
	// second actually delivered to clients.
	GoodputRPS float64 `json:"goodput_rps"`
	// P50/P95/P99 are accepted-submit round-trip latency quantiles.
	P50 time.Duration `json:"p50_ns"`
	P95 time.Duration `json:"p95_ns"`
	P99 time.Duration `json:"p99_ns"`
}

// String renders the one-line human summary.
func (r Result) String() string {
	return fmt.Sprintf(
		"offered %d accepted %d (goodput %.1f/s, %d cached) shed %d quota + %d capacity, lost %d, errors %d, p50 %s p95 %s p99 %s",
		r.Offered, r.Accepted, r.GoodputRPS, r.CacheHits,
		r.ShedQuota, r.ShedCapacity, r.Lost, r.Errors,
		r.P50.Round(time.Millisecond), r.P95.Round(time.Millisecond), r.P99.Round(time.Millisecond))
}

// submitSpec is one generated arrival.
type submitSpec struct {
	body   []byte
	tenant string
}

// Run offers Profile's traffic against p.Addr and blocks until the window
// closes and every in-flight submit has a verdict. The context cancels
// the run early; the partial Result is still returned.
func Run(ctx context.Context, p Profile) (Result, error) {
	p = p.withDefaults()
	if p.Rate <= 0 {
		return Result{}, fmt.Errorf("load: offered rate must be positive, got %g", p.Rate)
	}
	if p.Duration <= 0 {
		return Result{}, fmt.Errorf("load: duration must be positive, got %v", p.Duration)
	}

	hc := &http.Client{Timeout: p.Timeout}
	var (
		res       Result
		latencies []time.Duration
		mu        sync.Mutex // guards res and latencies until wg.Wait
	)

	arrivals := make(chan submitSpec, 4*p.Clients)
	var wg sync.WaitGroup
	for c := 0; c < p.Clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for spec := range arrivals {
				start := time.Now()
				ex := submitOnce(ctx, hc, p, spec)
				lat := time.Since(start)
				mu.Lock()
				switch ex.verdict {
				case verdictAccepted:
					res.Accepted++
					if ex.cached {
						res.CacheHits++
					}
					if ex.status == api.StatusCompleted {
						res.Completed++
					} else {
						res.Aborted++
					}
					latencies = append(latencies, lat)
				case verdictLost:
					res.Lost++
				case verdictQuota, verdictQuotaNoRetryAfter:
					res.ShedQuota++
				case verdictCapacity, verdictCapacityNoRetryAfter:
					res.ShedCapacity++
				default:
					res.Errors++
				}
				if ex.verdict == verdictQuotaNoRetryAfter || ex.verdict == verdictCapacityNoRetryAfter {
					res.RetryAfterMissing++
				}
				mu.Unlock()
			}
		}()
	}

	// Pacer: single goroutine, so the key/tenant random streams are
	// deterministic in generation order even though completion order races.
	rng := rand.New(rand.NewSource(p.Seed))
	var zipf *rand.Zipf
	if p.ZipfS > 1 {
		zipf = rand.NewZipf(rng, p.ZipfS, 1, uint64(p.KeySpace-1))
	}
	start := time.Now()
	deadline := start.Add(p.Duration)
	interval := time.Duration(float64(time.Second) / p.Rate)
	next := start
pace:
	for time.Now().Before(deadline) && ctx.Err() == nil {
		key := 0
		if zipf != nil {
			key = int(zipf.Uint64())
		} else {
			key = rng.Intn(p.KeySpace)
		}
		spec := submitSpec{
			body:   submitBody(p.Horizon, int64(key)+1),
			tenant: tenantKey(p, rng, time.Since(start)),
		}
		mu.Lock()
		res.Offered++
		select {
		case arrivals <- spec:
		default:
			// Backlog full: the generator itself saturated. Count it rather
			// than block — blocking would silently close the loop and stop
			// measuring overload.
			res.Saturated++
		}
		mu.Unlock()
		next = next.Add(interval)
		for {
			d := time.Until(next)
			if d <= 0 {
				continue pace
			}
			t := time.NewTimer(d)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
				break pace
			}
		}
	}
	close(arrivals)
	wg.Wait()

	res.Elapsed = time.Since(start)
	if res.Elapsed > 0 {
		res.GoodputRPS = float64(res.Accepted) / res.Elapsed.Seconds()
	}
	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	res.P50 = quantile(latencies, 0.50)
	res.P95 = quantile(latencies, 0.95)
	res.P99 = quantile(latencies, 0.99)
	return res, ctx.Err()
}

// tenantPrefix names the synthetic tenants.
const tenantPrefix = "load"

// tenantKey draws the submit's tenant. Generations rotate every Churn so
// a long flood keeps minting fresh dynamic keys on the server.
func tenantKey(p Profile, rng *rand.Rand, elapsed time.Duration) string {
	if p.Tenants <= 0 {
		return ""
	}
	gen := 0
	if p.Churn > 0 {
		gen = int(elapsed / p.Churn)
	}
	return fmt.Sprintf("%s-%03d-g%d", tenantPrefix, rng.Intn(p.Tenants), gen)
}

type verdict int

const (
	verdictAccepted verdict = iota
	verdictLost
	verdictQuota
	verdictQuotaNoRetryAfter
	verdictCapacity
	verdictCapacityNoRetryAfter
	verdictError
)

// exchange is one submit's classified outcome.
type exchange struct {
	verdict verdict
	cached  bool       // accepted: answered from a cache tier
	status  api.Status // accepted: the record's terminal status
	err     error      // not accepted: the transport error, or the HTTP status and body
}

// submitOnce performs one wait=1 submit and classifies the exchange.
func submitOnce(ctx context.Context, hc *http.Client, p Profile, spec submitSpec) exchange {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, p.Addr+"/v1/jobs?wait=1", bytes.NewReader(spec.body))
	if err != nil {
		return exchange{verdict: verdictError, err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	if spec.tenant != "" {
		req.Header.Set(api.APIKeyHeader, spec.tenant)
	}
	if p.DeadlineMS > 0 {
		req.Header.Set(api.DeadlineHeader, strconv.FormatInt(p.DeadlineMS, 10))
	}
	resp, err := hc.Do(req)
	if err != nil {
		return exchange{verdict: verdictError, err: err}
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
	if err != nil {
		return exchange{verdict: verdictError, err: fmt.Errorf("HTTP %s: reading the body: %w", resp.Status, err)}
	}
	withBody := func(v verdict) exchange {
		body := strings.TrimSpace(string(raw))
		if len(body) > 512 {
			body = body[:512] + "…"
		}
		return exchange{verdict: v, err: fmt.Errorf("HTTP %s: %s", resp.Status, body)}
	}
	hasRetryAfter := resp.Header.Get("Retry-After") != ""
	switch {
	case resp.StatusCode >= 200 && resp.StatusCode <= 299:
		var rec api.Record
		if err := json.Unmarshal(raw, &rec); err != nil {
			return withBody(verdictLost)
		}
		if rec.Status != api.StatusCompleted && rec.Status != api.StatusAborted {
			return withBody(verdictLost)
		}
		return exchange{verdict: verdictAccepted, cached: rec.Cached, status: rec.Status}
	case resp.StatusCode == http.StatusTooManyRequests && hasRetryAfter:
		return withBody(verdictQuota)
	case resp.StatusCode == http.StatusTooManyRequests:
		return withBody(verdictQuotaNoRetryAfter)
	case resp.StatusCode == http.StatusServiceUnavailable && hasRetryAfter:
		return withBody(verdictCapacity)
	case resp.StatusCode == http.StatusServiceUnavailable:
		return withBody(verdictCapacityNoRetryAfter)
	default:
		return withBody(verdictError)
	}
}

// submitBody encodes the fixed-circuit request for one key.
func submitBody(horizon float64, seed int64) []byte {
	raw, err := json.Marshal(api.Request{
		Netlist: chainNetlist,
		Inputs:  map[string]string{"i": "0 r@1 f@2"},
		Horizon: horizon,
		Seed:    seed,
	})
	if err != nil {
		panic(err) // plain data struct; cannot fail
	}
	return raw
}

// quantile returns the q-quantile of an ascending-sorted sample (nearest
// rank), or 0 for an empty sample.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(q*float64(len(sorted))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// Calibrate measures the node's single-job service time: one uncached
// wait=1 submit, timed end to end. Combined with the node's reported pool
// width it converts "k× capacity" into an offered rate:
//
//	rate = k × width / serviceTime
func Calibrate(ctx context.Context, addr string, horizon float64, seed int64, timeout time.Duration) (time.Duration, error) {
	p := Profile{Addr: addr, Timeout: timeout}.withDefaults()
	start := time.Now()
	ex := submitOnce(ctx, &http.Client{Timeout: p.Timeout}, p, submitSpec{body: submitBody(horizon, seed)})
	if ex.verdict != verdictAccepted {
		return 0, fmt.Errorf("load: calibration submit refused: %w", ex.err)
	}
	return time.Since(start), nil
}
