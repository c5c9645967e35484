package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"involution/internal/admission"
	"involution/internal/server/api"
)

// doJSONHdr is doJSON plus request headers.
func doJSONHdr(t *testing.T, h http.Handler, method, target string, body any, hdr map[string]string) *httptest.ResponseRecorder {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatalf("marshal request: %v", err)
	}
	req := httptest.NewRequest(method, target, bytes.NewReader(raw))
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

func TestTenantRateLimit429(t *testing.T) {
	ctl := admission.New(admission.Config{Tenants: []admission.TenantConfig{
		{Key: "k1", Name: "tiny", Limits: admission.Limits{RPS: 1, Burst: 2}},
	}})
	s := New(Config{Workers: 1, QueueDepth: 16, Admission: ctl})
	t.Cleanup(func() { s.Drain(time.Second) })
	h := s.Handler()
	hdr := map[string]string{api.APIKeyHeader: "k1"}

	var got429 bool
	for i := 0; i < 10; i++ {
		req := Request{Netlist: bufNetlist, Seed: int64(i)}
		w := doJSONHdr(t, h, "POST", "/v1/jobs?wait=1", req, hdr)
		switch w.Code {
		case http.StatusOK:
		case http.StatusTooManyRequests:
			got429 = true
			retryAfterIn(t, w.Header().Get("Retry-After"), 1, 3)
		default:
			t.Fatalf("submit %d: status %d: %s", i, w.Code, w.Body.String())
		}
	}
	if !got429 {
		t.Fatal("10 instantaneous submits at 1 rps / burst 2 never drew a 429")
	}
	if s.met.shedRate.Value() == 0 || s.met.shedTotal.Value() == 0 {
		t.Fatal("shed counters not bumped by rate refusals")
	}
	// Quota sheds surface as Throttled in /healthz; they are not capacity
	// sheds.
	var hlth api.Health
	w := doJSON(t, h, "GET", "/healthz", nil)
	if err := json.Unmarshal(w.Body.Bytes(), &hlth); err != nil {
		t.Fatalf("healthz: %v", err)
	}
	if hlth.Throttled == 0 {
		t.Fatalf("healthz Throttled = 0 after 429s: %+v", hlth)
	}
	if hlth.Width != 1 {
		t.Fatalf("healthz Width = %d, want 1 (one worker)", hlth.Width)
	}
	// An authorized Bearer key resolves to the same tenant as X-Api-Key.
	w = doJSONHdr(t, h, "POST", "/v1/jobs?wait=1", Request{Netlist: bufNetlist, Seed: 99},
		map[string]string{"Authorization": "Bearer k1"})
	if w.Code != http.StatusOK && w.Code != http.StatusTooManyRequests {
		t.Fatalf("bearer submit: status %d: %s", w.Code, w.Body.String())
	}
}

func TestTenantEventBudget429(t *testing.T) {
	ctl := admission.New(admission.Config{Tenants: []admission.TenantConfig{
		{Key: "k2", Limits: admission.Limits{EventsPerSec: 10, EventBurst: 100}},
	}})
	s := New(Config{Workers: 1, QueueDepth: 16, Admission: ctl})
	t.Cleanup(func() { s.Drain(time.Second) })
	h := s.Handler()
	hdr := map[string]string{api.APIKeyHeader: "k2"}

	// First job fits the 100-event burst; an immediate second identical-cost
	// job cannot.
	w := doJSONHdr(t, h, "POST", "/v1/jobs?wait=1", Request{Netlist: bufNetlist, MaxEvents: 100, Seed: 1}, hdr)
	if w.Code != http.StatusOK {
		t.Fatalf("first submit: status %d: %s", w.Code, w.Body.String())
	}
	w = doJSONHdr(t, h, "POST", "/v1/jobs?wait=1", Request{Netlist: bufNetlist, MaxEvents: 100, Seed: 2}, hdr)
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("over-budget submit: status %d, want 429: %s", w.Code, w.Body.String())
	}
	if s.met.shedBudget.Value() != 1 {
		t.Fatalf("shedBudget = %d, want 1", s.met.shedBudget.Value())
	}
	// A cache hit re-submitting job 1 costs no budget: answered from
	// memory.
	w = doJSONHdr(t, h, "POST", "/v1/jobs?wait=1", Request{Netlist: bufNetlist, MaxEvents: 100, Seed: 1}, hdr)
	if w.Code != http.StatusOK {
		t.Fatalf("cache-hit resubmit: status %d, want 200: %s", w.Code, w.Body.String())
	}
}

func TestDeadlineInfeasibleShed503(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 16})
	t.Cleanup(func() { s.Drain(10 * time.Second) })
	h := s.Handler()

	// Teach the estimator a 10s service time (white box: the EWMA normally
	// learns from finished jobs) and occupy the single worker so depth > 0
	// applies.
	s.ewmaSim.Store(math.Float64bits(10.0))
	slow := Request{Netlist: ringNetlist, Horizon: 1e12, MaxEvents: 100_000_000}
	if w := doJSON(t, h, "POST", "/v1/jobs", slow); w.Code != http.StatusAccepted {
		t.Fatalf("occupying submit: status %d", w.Code)
	}

	w := doJSONHdr(t, h, "POST", "/v1/jobs", Request{Netlist: bufNetlist},
		map[string]string{api.DeadlineHeader: "50"})
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("infeasible-deadline submit: status %d, want 503: %s", w.Code, w.Body.String())
	}
	if w.Header().Get("Retry-After") == "" {
		t.Fatal("deadline shed missing Retry-After")
	}
	if s.met.shedDeadline.Value() != 1 {
		t.Fatalf("shedDeadline = %d, want 1", s.met.shedDeadline.Value())
	}
	// A patient client (no deadline header) is still accepted.
	if w := doJSON(t, h, "POST", "/v1/jobs", Request{Netlist: bufNetlist, Seed: 7}); w.Code != http.StatusAccepted {
		t.Fatalf("patient submit: status %d, want 202", w.Code)
	}
	s.Drain(50 * time.Millisecond) // cancel the deliberately endless job
}

func TestDisconnectedQueuedJobFreesSlot(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 16})
	t.Cleanup(func() { s.Drain(10 * time.Second) })
	h := s.Handler()

	// Occupy the only worker with an endless job, then park a wait=1 submit
	// behind it and hang up.
	slow := Request{Netlist: ringNetlist, Horizon: 1e12, MaxEvents: 100_000_000}
	if w := doJSON(t, h, "POST", "/v1/jobs", slow); w.Code != http.StatusAccepted {
		t.Fatalf("occupying submit: status %d", w.Code)
	}

	ctx, cancel := context.WithCancel(context.Background())
	raw, _ := json.Marshal(Request{Netlist: bufNetlist, Seed: 42})
	req := httptest.NewRequest("POST", "/v1/jobs?wait=1", bytes.NewReader(raw)).WithContext(ctx)
	w := httptest.NewRecorder()
	handlerDone := make(chan struct{})
	go func() {
		defer close(handlerDone)
		h.ServeHTTP(w, req)
	}()

	// Wait until the job is registered and queued, then disconnect.
	deadline := time.Now().Add(5 * time.Second)
	for s.pool.Depth() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("second job never queued")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	<-handlerDone

	waitFor(t, 5*time.Second, func() bool { return s.met.shedDisconnect.Value() == 1 })
	// Cancel the deliberately endless job; the freed worker must dispose of
	// the canceled queued job through the fast-release path — a typed
	// canceled abort without ever simulating.
	s.Drain(50 * time.Millisecond)
	waitFor(t, 5*time.Second, func() bool {
		j, ok := s.lookup("job-000002")
		return ok && j.finished()
	})
	j, _ := s.lookup("job-000002")
	if rec := j.snapshot(); rec.Status != StatusAborted || rec.Class != "canceled" {
		t.Fatalf("disconnected queued job = %s/%s, want aborted/canceled", rec.Status, rec.Class)
	}
}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never held")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestConcurrentMultiTenantFlood is the -race satellite: several tenants
// flood the server concurrently; every accepted job must reach a terminal
// record (nothing dropped), refusals must be typed 429s with Retry-After,
// and per-tenant accounting must match the callers' view exactly.
func TestConcurrentMultiTenantFlood(t *testing.T) {
	const tenants = 3
	var cfgs []admission.TenantConfig
	for i := 0; i < tenants; i++ {
		cfgs = append(cfgs, admission.TenantConfig{
			Key:    fmt.Sprintf("flood-%d", i),
			Limits: admission.Limits{RPS: 50, Burst: 10},
		})
	}
	s := New(Config{Workers: 4, QueueDepth: 64, Admission: admission.New(admission.Config{Tenants: cfgs})})
	t.Cleanup(func() { s.Drain(10 * time.Second) })
	h := s.Handler()

	const perTenant = 60
	var wg sync.WaitGroup
	var mu sync.Mutex
	accepted := make(map[string]int) // job ID → count (dup detection)
	var throttled, capacity int
	for k := 0; k < tenants; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			hdr := map[string]string{api.APIKeyHeader: fmt.Sprintf("flood-%d", k)}
			for i := 0; i < perTenant; i++ {
				req := Request{Netlist: bufNetlist, Seed: int64(k*perTenant + i)}
				w := doJSONHdr(t, h, "POST", "/v1/jobs?wait=1", req, hdr)
				switch w.Code {
				case http.StatusOK:
					var rec Record
					if err := json.Unmarshal(w.Body.Bytes(), &rec); err != nil || rec.ID == "" {
						t.Errorf("accepted job without a record: %v %s", err, w.Body.String())
						return
					}
					if rec.Status != StatusCompleted {
						t.Errorf("accepted wait=1 job %s finished %s, want completed", rec.ID, rec.Status)
						return
					}
					mu.Lock()
					accepted[rec.ID]++
					mu.Unlock()
				case http.StatusTooManyRequests:
					if w.Header().Get("Retry-After") == "" {
						t.Error("429 without Retry-After")
						return
					}
					mu.Lock()
					throttled++
					mu.Unlock()
				case http.StatusServiceUnavailable:
					mu.Lock()
					capacity++
					mu.Unlock()
				default:
					t.Errorf("unexpected status %d: %s", w.Code, w.Body.String())
					return
				}
			}
		}(k)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	var ok int
	for id, n := range accepted {
		if n != 1 {
			t.Fatalf("job ID %s returned to %d callers", id, n)
		}
		ok++
	}
	if ok == 0 {
		t.Fatal("flood admitted nothing")
	}
	if throttled == 0 {
		t.Fatal("flood at 60 instantaneous submits per 50rps/10-burst tenant drew no 429s")
	}
	// The server's own accounting must agree with the callers' tallies.
	if got := s.met.quotaSheds(); got != int64(throttled) {
		t.Fatalf("server quota sheds = %d, callers saw %d", got, throttled)
	}
	if got := s.met.capacitySheds(); got != int64(capacity) {
		t.Fatalf("server capacity sheds = %d, callers saw %d", got, capacity)
	}
	// Every admitted-and-run job is terminal: nothing queued, nothing
	// running, nothing lost. A wait=1 caller is answered from inside its
	// job, before the pool's worker settles the in-flight count, so the
	// count is read once Close has waited the workers out.
	if d := s.pool.Depth(); d != 0 {
		t.Fatalf("flood left depth=%d, want 0", d)
	}
	s.pool.Close()
	if f := s.pool.InFlight(); f != 0 {
		t.Fatalf("flood left inflight=%d, want 0", f)
	}
}
