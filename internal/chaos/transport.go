package chaos

import (
	"bytes"
	"context"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"involution/internal/obs"
	"involution/internal/splitmix"
)

// Error is an injected transport-level failure. It satisfies net.Error so
// callers treating timeouts specially see a consistent story.
type Error struct {
	// Fault is the injected fault kind.
	Fault string
	// Node is the host the exchange addressed.
	Node string
}

func (e *Error) Error() string {
	return fmt.Sprintf("chaos: injected %s (%s)", e.Fault, e.Node)
}

// Timeout reports stall faults as timeouts.
func (e *Error) Timeout() bool { return e.Fault == FaultStall }

// Temporary is always true: injected faults model transient conditions.
func (e *Error) Temporary() bool { return true }

// Transport is a fault-injecting http.RoundTripper: it evaluates its
// Schedule against every exchange and delays, refuses, resets, truncates
// or corrupts it accordingly, delegating untouched exchanges to the base
// transport. Safe for concurrent use.
type Transport struct {
	sched *Schedule
	base  http.RoundTripper
	now   func() time.Time
	epoch time.Time

	mu     sync.Mutex
	occ    map[string]uint64 // request identity → occurrences seen
	bursts map[string]uint64 // rule|key → last occurrence the burst covers
	counts map[string]uint64 // fault kind → injections

	reg     *obs.Registry
	metOnce sync.Once
	met     map[string]*obs.Counter
}

// NewTransport wraps base (nil: http.DefaultTransport) with the schedule's
// faults. The schedule's time windows are measured from this call.
func NewTransport(sched *Schedule, base http.RoundTripper) *Transport {
	if base == nil {
		base = http.DefaultTransport
	}
	t := &Transport{
		sched:  sched,
		base:   base,
		now:    time.Now,
		occ:    make(map[string]uint64),
		bursts: make(map[string]uint64),
		counts: make(map[string]uint64),
	}
	t.epoch = t.now()
	return t
}

// WithRegistry routes injection counts into reg as
// chaos_injected_<fault>_total counters (call before first use).
func (t *Transport) WithRegistry(reg *obs.Registry) *Transport {
	t.reg = reg
	return t
}

// Counts returns a copy of the per-fault injection tallies.
func (t *Transport) Counts() map[string]uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]uint64, len(t.counts))
	for k, v := range t.counts {
		out[k] = v
	}
	return out
}

// identity derives the request's deterministic identity:
// method|host|path|body-hash. Bodies are re-read through GetBody, so the
// request stays replayable for the base transport.
func identity(req *http.Request) string {
	h := fnv.New64a()
	if req.Body != nil && req.GetBody != nil {
		if rc, err := req.GetBody(); err == nil {
			io.Copy(h, rc)
			rc.Close()
		}
	}
	return req.Method + "|" + req.URL.Host + "|" + req.URL.Path + "|" + strconv.FormatUint(h.Sum64(), 16)
}

// next allocates the occurrence number for one more sighting of key.
func (t *Transport) next(key string) uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := t.occ[key]
	t.occ[key] = n + 1
	return n
}

// fired evaluates rule idx for (key, occ), extending and honoring bursts.
func (t *Transport) fired(idx int, key string, occ uint64) bool {
	if t.sched.decide(idx, key, occ) {
		if b := t.sched.Rules[idx].Burst; b > 0 {
			t.mu.Lock()
			bk := strconv.Itoa(idx) + "|" + key
			if end := occ + uint64(b); end > t.bursts[bk] {
				t.bursts[bk] = end
			}
			t.mu.Unlock()
		}
		return true
	}
	if t.sched.Rules[idx].Burst > 0 {
		t.mu.Lock()
		covered := occ <= t.bursts[strconv.Itoa(idx)+"|"+key]
		t.mu.Unlock()
		return covered
	}
	return false
}

// count tallies one injection.
func (t *Transport) count(fault string) {
	t.mu.Lock()
	t.counts[fault]++
	t.mu.Unlock()
	if t.reg != nil {
		t.metOnce.Do(func() {
			t.met = make(map[string]*obs.Counter)
			for _, f := range []string{FaultLatency, FaultReset, FaultStall, FaultStatus, FaultTruncate, FaultCorrupt, FaultPartition} {
				t.met[f] = t.reg.Counter("chaos_injected_"+f+"_total", "chaos faults injected: "+f)
			}
		})
		if c := t.met[fault]; c != nil {
			c.Inc()
		}
	}
}

// RoundTrip implements http.RoundTripper. Rules are evaluated in schedule
// order: latency accumulates, the first refusing fault (reset, stall,
// status, partition) ends the exchange, and body faults (truncate,
// corrupt) are applied to the real response in rule order.
func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	key := identity(req)
	occ := t.next(key)
	elapsed := t.now().Sub(t.epoch)
	host, path := req.URL.Host, req.URL.Path

	var delay time.Duration
	var bodyFaults []int
	for i, r := range t.sched.Rules {
		if !r.matches(host, path, elapsed) || !t.fired(i, key, occ) {
			continue
		}
		switch r.Fault {
		case FaultLatency:
			delay += r.latency()
		case FaultTruncate, FaultCorrupt:
			bodyFaults = append(bodyFaults, i)
		case FaultStall:
			t.count(FaultStall)
			if err := sleep(req.Context(), delay+r.latency()); err != nil {
				return nil, err
			}
			return nil, &Error{Fault: FaultStall, Node: host}
		case FaultReset, FaultPartition:
			t.count(r.Fault)
			if err := sleep(req.Context(), delay); err != nil {
				return nil, err
			}
			return nil, &Error{Fault: r.Fault, Node: host}
		case FaultStatus:
			t.count(FaultStatus)
			if err := sleep(req.Context(), delay); err != nil {
				return nil, err
			}
			return synthesize(req, r), nil
		}
	}
	if delay > 0 {
		t.count(FaultLatency)
		if err := sleep(req.Context(), delay); err != nil {
			return nil, err
		}
	}

	resp, err := t.base.RoundTrip(req)
	if err != nil || len(bodyFaults) == 0 {
		return resp, err
	}
	return t.mutate(resp, bodyFaults, key, occ, host)
}

// mutate applies the fired body faults to the real response.
func (t *Transport) mutate(resp *http.Response, fired []int, key string, occ uint64, host string) (*http.Response, error) {
	body, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	truncated := false
	for _, i := range fired {
		r := t.sched.Rules[i]
		state := t.sched.mix(i, key, occ)
		switch r.Fault {
		case FaultCorrupt:
			t.count(FaultCorrupt)
			body = corrupt(body, splitmix.Mix(state+splitmix.Gamma), r.flips())
		case FaultTruncate:
			t.count(FaultTruncate)
			if len(body) > 1 {
				// Keep a deterministic 10–90% prefix.
				keep := 1 + int(state%uint64(len(body)*8/10))
				body = body[:min(keep+len(body)/10, len(body)-1)]
			}
			truncated = true
		}
	}
	if truncated {
		// A cut stream: the reader yields the prefix, then fails the way a
		// dropped connection does instead of signaling a clean EOF.
		resp.Body = io.NopCloser(&brokenReader{data: body})
	} else {
		resp.Body = io.NopCloser(bytes.NewReader(body))
		resp.ContentLength = int64(len(body))
	}
	return resp, nil
}

// brokenReader yields data and then an unexpected-EOF error.
type brokenReader struct {
	data []byte
	off  int
}

func (b *brokenReader) Read(p []byte) (int, error) {
	if b.off >= len(b.data) {
		return 0, io.ErrUnexpectedEOF
	}
	n := copy(p, b.data[b.off:])
	b.off += n
	return n, nil
}

// synthesize builds the refusal response of a status fault.
func synthesize(req *http.Request, r Rule) *http.Response {
	body := []byte(fmt.Sprintf(`{"error":"chaos: injected %d"}`, r.status()))
	resp := &http.Response{
		Status:        http.StatusText(r.status()),
		StatusCode:    r.status(),
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        make(http.Header),
		Body:          io.NopCloser(bytes.NewReader(body)),
		ContentLength: int64(len(body)),
		Request:       req,
	}
	resp.Header.Set("Content-Type", "application/json")
	if r.RetryAfter > 0 {
		resp.Header.Set("Retry-After", strconv.Itoa(r.RetryAfter))
	}
	return resp
}

// sleep waits d or until ctx is done.
func sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	tm := time.NewTimer(d)
	defer tm.Stop()
	select {
	case <-tm.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
