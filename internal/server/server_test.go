package server

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"involution/internal/channel"
	"involution/internal/circuit"
	"involution/internal/gate"
	"involution/internal/server/api"
	"involution/internal/signal"
	"involution/internal/sim"
)

// bufNetlist is a fast, well-behaved job: one buffered pulse.
const bufNetlist = "circuit chain\ninput i\noutput o\ngate g BUF init=0\nchannel i g 0 pure d=1\nchannel g o 0 zero\n"

// ringNetlist oscillates forever: a NOT gate feeding itself through an
// involution channel. With a large horizon it exhausts any event budget.
const ringNetlist = "circuit ring\noutput o\ngate n NOT init=1\nchannel n n 0 exp tau=1 tp=0.5 vth=0.6\nchannel n o 0 zero\n"

func testServer(t *testing.T) *Server {
	t.Helper()
	s := New(Config{Workers: 4, QueueDepth: 32})
	t.Cleanup(func() { s.Drain(5 * time.Second) })
	return s
}

func doJSON(t *testing.T, h http.Handler, method, target string, body any) *httptest.ResponseRecorder {
	t.Helper()
	var rd *bytes.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatalf("marshal request: %v", err)
		}
		rd = bytes.NewReader(raw)
	} else {
		rd = bytes.NewReader(nil)
	}
	req := httptest.NewRequest(method, target, rd)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

func decodeRecord(t *testing.T, w *httptest.ResponseRecorder) Record {
	t.Helper()
	var rec Record
	if err := json.Unmarshal(w.Body.Bytes(), &rec); err != nil {
		t.Fatalf("decode record: %v\n%s", err, w.Body.String())
	}
	return rec
}

func payloadOf(t *testing.T, rec Record) ResultPayload {
	t.Helper()
	var p ResultPayload
	if err := json.Unmarshal(rec.Result, &p); err != nil {
		t.Fatalf("decode result payload: %v\n%s", err, rec.Result)
	}
	return p
}

// submitWait submits a job with ?wait=1 and returns its terminal record.
func submitWait(t *testing.T, h http.Handler, req Request) Record {
	t.Helper()
	w := doJSON(t, h, "POST", "/v1/jobs?wait=1", req)
	if w.Code != http.StatusOK {
		t.Fatalf("submit: status %d: %s", w.Code, w.Body.String())
	}
	return decodeRecord(t, w)
}

// assertServing asserts the server still answers health checks and runs a
// well-behaved job to completion — the "server survived" half of every
// hostile-battery case.
func assertServing(t *testing.T, h http.Handler) {
	t.Helper()
	if w := doJSON(t, h, "GET", "/healthz", nil); w.Code != http.StatusOK {
		t.Fatalf("healthz after hostile job: status %d", w.Code)
	}
	rec := submitWait(t, h, Request{Netlist: bufNetlist, Inputs: map[string]string{"i": "0 r@1 f@2"}, Horizon: 10})
	if rec.Status != StatusCompleted {
		t.Fatalf("well-behaved job after hostile job: status %s (class %s, error %s)", rec.Status, rec.Class, rec.Error)
	}
}

// hostileModel is a channel model that misbehaves on its first input
// transition: mode "panic" panics inside the simulator hot path, mode
// "nan" schedules an event at t=NaN.
type hostileModel struct{ mode string }

func (m hostileModel) Apply(s signal.Signal) (signal.Signal, error) { return s, nil }
func (m hostileModel) String() string                               { return "hostile(" + m.mode + ")" }
func (m hostileModel) NewInstance() channel.Instance                { return hostileInstance{mode: m.mode} }

type hostileInstance struct{ mode string }

func (i hostileInstance) Input(t float64, to signal.Value) channel.Action {
	switch i.mode {
	case "panic":
		panic("hostile channel model")
	case "nan":
		return channel.Action{Schedule: true, At: math.NaN(), To: to}
	}
	return channel.Action{Schedule: true, At: t + 1, To: to}
}

func hostileCircuit(mode string) (*circuit.Circuit, error) {
	c := circuit.New("hostile-" + mode)
	if err := errors.Join(
		c.AddInput("i"),
		c.AddGate("g", gate.Buf(), signal.Low),
		c.AddOutput("o"),
		c.Connect("i", "g", 0, hostileModel{mode: mode}),
		c.Connect("g", "o", 0, nil),
	); err != nil {
		return nil, err
	}
	return c, nil
}

func registerHostile(s *Server) {
	for _, mode := range []string{"panic", "nan"} {
		mode := mode
		s.RegisterBuiltin(Builtin{
			Name: "hostile-" + mode,
			Desc: "test: channel model that misbehaves (" + mode + ")",
			Build: func(string, int64) (*circuit.Circuit, error) {
				return hostileCircuit(mode)
			},
		})
	}
}

// TestHostileJobBattery drives the server through the misbehaving-job
// gauntlet: a panicking channel model, a NaN event time and an event-budget
// blowout must each surface as a typed aborted job — correct class, partial
// RunStats, shared exit code — with the server fully serving afterwards.
func TestHostileJobBattery(t *testing.T) {
	s := testServer(t)
	registerHostile(s)
	h := s.Handler()

	cases := []struct {
		name     string
		req      Request
		class    sim.Class
		exitCode int
	}{
		{"panicking scenario",
			Request{Circuit: "hostile-panic", Inputs: map[string]string{"i": "0 r@1"}, Horizon: 10},
			sim.ClassPanic, sim.ExitPanic},
		{"nan event time",
			Request{Circuit: "hostile-nan", Inputs: map[string]string{"i": "0 r@1"}, Horizon: 10},
			sim.ClassBadTime, sim.ExitAbort},
		{"event budget blowout",
			Request{Netlist: ringNetlist, Horizon: 1e9, MaxEvents: 200},
			sim.ClassBudget, sim.ExitAbort},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := submitWait(t, h, tc.req)
			if rec.Status != StatusAborted {
				t.Fatalf("status = %s, want aborted", rec.Status)
			}
			if rec.Class != string(tc.class) {
				t.Fatalf("class = %q, want %q (error: %s)", rec.Class, tc.class, rec.Error)
			}
			p := payloadOf(t, rec)
			if p.Class != string(tc.class) || p.Status != StatusAborted {
				t.Fatalf("payload class/status = %q/%s, want %q/aborted", p.Class, p.Status, tc.class)
			}
			if p.ExitCode != tc.exitCode {
				t.Fatalf("exit code = %d, want %d", p.ExitCode, tc.exitCode)
			}
			// Partial stats must be present: every hostile case at least
			// scheduled its stimulus events before dying.
			if p.Stats.Scheduled == 0 {
				t.Fatalf("partial RunStats missing: %+v", p.Stats)
			}
			assertServing(t, h)
		})
	}
}

// TestPanickingJobKeepsServerAlive is the regression pinning the isolation
// contract: a panicking job must yield an HTTP 200 job record with class
// "panic" — not a crashed server, not a 5xx.
func TestPanickingJobKeepsServerAlive(t *testing.T) {
	s := testServer(t)
	registerHostile(s)
	h := s.Handler()

	rec := submitWait(t, h, Request{Circuit: "hostile-panic", Inputs: map[string]string{"i": "0 r@1"}, Horizon: 10})
	w := doJSON(t, h, "GET", "/v1/jobs/"+rec.ID, nil)
	if w.Code != http.StatusOK {
		t.Fatalf("GET job after panic: status %d, want 200", w.Code)
	}
	got := decodeRecord(t, w)
	if got.Status != StatusAborted || got.Class != string(sim.ClassPanic) {
		t.Fatalf("record = %s/%q, want aborted/panic", got.Status, got.Class)
	}
	assertServing(t, h)
}

// TestClientDisconnectMidStream submits a long-running job with
// ?stream=trace over a real TCP connection, drops the connection
// mid-stream, and expects the job to finish as a typed canceled abort with
// the server still serving.
func TestClientDisconnectMidStream(t *testing.T) {
	s := testServer(t)
	h := s.Handler()
	ts := httptest.NewServer(h)
	defer ts.Close()

	body, _ := json.Marshal(Request{Netlist: ringNetlist, Horizon: 1e12, MaxEvents: 50_000_000})
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, "POST", ts.URL+"/v1/jobs?stream=trace", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatalf("streaming submit: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("streaming submit: status %d", resp.StatusCode)
	}
	id := resp.Header.Get("X-Job-Id")
	if id == "" {
		t.Fatal("streaming submit: no X-Job-Id header")
	}
	// Prove the stream is live (at least one trace line arrives), then
	// drop the connection.
	line, err := bufio.NewReader(resp.Body).ReadString('\n')
	if err != nil || !strings.Contains(line, `"k"`) {
		t.Fatalf("first trace line: %q, %v", line, err)
	}
	cancel()

	j, ok := s.lookup(id)
	if !ok {
		t.Fatalf("job %s not registered", id)
	}
	select {
	case <-j.done:
	case <-time.After(10 * time.Second):
		t.Fatal("job did not finish after client disconnect")
	}
	rec := j.snapshot()
	if rec.Status != StatusAborted || rec.Class != string(sim.ClassCanceled) {
		t.Fatalf("record = %s/%q, want aborted/canceled (error: %s)", rec.Status, rec.Class, rec.Error)
	}
	if p := payloadOf(t, rec); p.ExitCode != sim.ExitCanceled || p.Stats.Delivered == 0 {
		t.Fatalf("payload = exit %d, stats %+v; want exit %d with partial stats", p.ExitCode, p.Stats, sim.ExitCanceled)
	}
	assertServing(t, h)
}

// TestCacheHitByteIdentical resubmits an identical seeded job and expects a
// cache hit whose result payload is byte-for-byte the first run's.
func TestCacheHitByteIdentical(t *testing.T) {
	s := testServer(t)
	h := s.Handler()

	req := Request{Circuit: "spf", Adversary: "uniform", Seed: 42, Horizon: 20}
	first := submitWait(t, h, req)
	if first.Status != StatusCompleted || first.Cached {
		t.Fatalf("first run: status %s cached %v (error: %s)", first.Status, first.Cached, first.Error)
	}
	second := submitWait(t, h, req)
	if !second.Cached || second.Status != StatusCompleted {
		t.Fatalf("second run: status %s cached %v, want completed cache hit", second.Status, second.Cached)
	}
	if !bytes.Equal(first.Result, second.Result) {
		t.Fatalf("cache hit not byte-identical:\nfirst:  %s\nsecond: %s", first.Result, second.Result)
	}
	if first.Hash != second.Hash {
		t.Fatalf("hash mismatch: %s vs %s", first.Hash, second.Hash)
	}
	if hits := s.met.cacheHits.Value(); hits != 1 {
		t.Fatalf("cache hits = %d, want 1", hits)
	}
}

// TestWireResultIsHashedBytes: a completed record's result goes out as the
// exact bytes its ResultHash was taken over — plain SHA-256, no
// compaction — on a fresh run and on a cache hit, and they are the bytes
// RunOne makes for the same request on another server.
func TestWireResultIsHashedBytes(t *testing.T) {
	h := testServer(t).Handler()
	req := Request{Circuit: "spf", Adversary: "uniform", Seed: 7, Horizon: 50}
	local, err := testServer(t).RunOne(context.Background(), req)
	if err != nil || local.Status != StatusCompleted {
		t.Fatalf("RunOne: %v, status %s", err, local.Status)
	}
	for _, want := range []bool{false, true} {
		w := doJSON(t, h, "POST", "/v1/jobs?wait=1", req)
		rec := decodeRecord(t, w)
		if rec.Status != StatusCompleted || rec.Cached != want {
			t.Fatalf("status %s cached %v, want completed cached %v", rec.Status, rec.Cached, want)
		}
		sum := sha256.Sum256(rec.Result)
		if got := hex.EncodeToString(sum[:]); got != rec.ResultHash {
			t.Fatalf("cached=%v: SHA-256 of the result bytes is %s, record stamps %s", want, got, rec.ResultHash)
		}
		if !bytes.Equal(rec.Result, local.Result) || rec.ResultHash != local.ResultHash {
			t.Fatalf("cached=%v: HTTP result\n%s\ndiffers from RunOne's\n%s", want, rec.Result, local.Result)
		}
	}
}

// TestCacheCanonicalization submits the same design twice with different
// surface spelling — comments, option order and case, number formats,
// stimulus whitespace — and expects the second submit to hit the cache.
func TestCacheCanonicalization(t *testing.T) {
	s := testServer(t)
	h := s.Handler()

	first := submitWait(t, h, Request{
		Netlist: bufNetlist,
		Inputs:  map[string]string{"i": "0 r@1 f@2"},
		Horizon: 10,
	})
	messy := "# same circuit, different spelling\ncircuit chain\ninput i\noutput o\n\ngate g buf\nchannel i g 00 PURE d=1.0\nchannel g o 0 zero\n"
	second := submitWait(t, h, Request{
		Netlist: messy,
		Inputs:  map[string]string{"i": "  0 r@1 f@2  "},
		Horizon: 10,
	})
	if first.Hash != second.Hash {
		t.Fatalf("canonicalization missed: hashes differ\nfirst:  %s\nsecond: %s", first.Hash, second.Hash)
	}
	if !second.Cached || !bytes.Equal(first.Result, second.Result) {
		t.Fatalf("expected byte-identical cache hit (cached=%v)", second.Cached)
	}
}

// TestCompletedPayloadScrubsWallClock pins the determinism contract: a
// completed payload carries duration_ns=0, so identical requests serialize
// identically regardless of machine speed.
func TestCompletedPayloadScrubsWallClock(t *testing.T) {
	s := testServer(t)
	rec := submitWait(t, s.Handler(), Request{Netlist: bufNetlist, Inputs: map[string]string{"i": "0 r@1"}, Horizon: 10})
	if p := payloadOf(t, rec); p.Stats.Duration != 0 {
		t.Fatalf("completed payload duration_ns = %d, want 0", p.Stats.Duration)
	}
}

// TestTraceEndpointReplay checks that a traced job's event stream can be
// fetched after completion and is well-formed JSONL, and that untraced
// jobs answer 409.
func TestTraceEndpointReplay(t *testing.T) {
	s := testServer(t)
	h := s.Handler()

	raw, _ := json.Marshal(Request{Netlist: bufNetlist, Inputs: map[string]string{"i": "0 r@1 f@2"}, Horizon: 10})
	req := httptest.NewRequest("POST", "/v1/jobs?trace=1&wait=1", bytes.NewReader(raw))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	rec := decodeRecord(t, w)
	if !rec.Trace {
		t.Fatalf("record not marked traced: %+v", rec)
	}

	tw := doJSON(t, h, "GET", "/v1/jobs/"+rec.ID+"/trace", nil)
	if tw.Code != http.StatusOK {
		t.Fatalf("trace fetch: status %d", tw.Code)
	}
	lines := strings.Split(strings.TrimSpace(tw.Body.String()), "\n")
	if len(lines) == 0 {
		t.Fatal("empty trace")
	}
	sawDeliver := false
	for _, ln := range lines {
		var m map[string]any
		if err := json.Unmarshal([]byte(ln), &m); err != nil {
			t.Fatalf("trace line is not JSON: %q: %v", ln, err)
		}
		if m["k"] == "deliver" {
			sawDeliver = true
		}
	}
	if !sawDeliver {
		t.Fatalf("trace has no deliver records:\n%s", tw.Body.String())
	}

	plain := submitWait(t, h, Request{Netlist: bufNetlist, Inputs: map[string]string{"i": "0 r@1"}, Horizon: 5})
	if plain.Cached {
		// A cached job never ran, so there is no trace either way; use a
		// distinct horizon to dodge the cache if this ever fires.
		t.Fatalf("expected uncached plain job")
	}
	if w := doJSON(t, h, "GET", "/v1/jobs/"+plain.ID+"/trace", nil); w.Code != http.StatusConflict {
		t.Fatalf("trace of untraced job: status %d, want 409", w.Code)
	}
}

// TestSubmitValidation covers the 400 paths.
func TestSubmitValidation(t *testing.T) {
	s := testServer(t)
	h := s.Handler()
	cases := []struct {
		name string
		req  Request
	}{
		{"neither netlist nor circuit", Request{}},
		{"both netlist and circuit", Request{Netlist: bufNetlist, Circuit: "spf"}},
		{"unknown builtin", Request{Circuit: "no-such"}},
		{"unknown adversary", Request{Circuit: "spf", Adversary: "chaotic"}},
		{"adversary on netlist", Request{Netlist: bufNetlist, Adversary: "worst"}},
		{"negative horizon", Request{Netlist: bufNetlist, Horizon: -1}},
		{"negative budget", Request{Netlist: bufNetlist, MaxEvents: -1}},
		{"negative deadline", Request{Netlist: bufNetlist, DeadlineMS: -1}},
		{"bad netlist", Request{Netlist: "circuit x\nbogus keyword\n"}},
		{"unknown input port", Request{Netlist: bufNetlist, Inputs: map[string]string{"zz": "0"}}},
		{"bad stimulus", Request{Netlist: bufNetlist, Inputs: map[string]string{"i": "not a signal"}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if w := doJSON(t, h, "POST", "/v1/jobs", tc.req); w.Code != http.StatusBadRequest {
				t.Fatalf("status %d, want 400: %s", w.Code, w.Body.String())
			}
			if _, err := s.RunOne(context.Background(), tc.req); err == nil {
				t.Fatal("RunOne accepted a request the handler refuses")
			}
		})
	}
	if w := doJSON(t, h, "POST", "/v1/jobs", map[string]any{"nope": 1}); w.Code != http.StatusBadRequest {
		t.Fatalf("unknown field: status %d, want 400", w.Code)
	}
}

// TestRunOneMatchesSubmit: the in-process evaluator and the HTTP handler
// are one job path. Concurrent RunOne calls and waiting submits of one
// request agree on the canonical hash and the result hash, and both count
// on the same submit, run and cache-hit counters.
func TestRunOneMatchesSubmit(t *testing.T) {
	s := testServer(t)
	h := s.Handler()
	req := Request{Netlist: bufNetlist, Inputs: map[string]string{"i": "0 r@1 f@2"}, Horizon: 10}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	const n = 8
	recs := make(chan Record, 2*n)
	errs := make(chan error, 2*n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			rec, err := s.RunOne(context.Background(), req)
			if err != nil {
				errs <- err
				return
			}
			recs <- rec
		}()
		go func() {
			defer wg.Done()
			w := httptest.NewRecorder()
			h.ServeHTTP(w, httptest.NewRequest("POST", "/v1/jobs?wait=1", bytes.NewReader(body)))
			var rec Record
			if err := json.Unmarshal(w.Body.Bytes(), &rec); err != nil || w.Code != http.StatusOK {
				errs <- fmt.Errorf("submit: status %d: %s", w.Code, w.Body.String())
				return
			}
			recs <- rec
		}()
	}
	wg.Wait()
	close(recs)
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	var first Record
	for rec := range recs {
		if rec.Status != StatusCompleted {
			t.Fatalf("status %s (%s)", rec.Status, rec.Error)
		}
		if first.Hash == "" {
			first = rec
		}
		if rec.Hash != first.Hash || rec.ResultHash != first.ResultHash {
			t.Fatalf("hash %s result %s, want %s result %s", rec.Hash, rec.ResultHash, first.Hash, first.ResultHash)
		}
	}
	sub, ran, hits := s.met.submitted.Value(), s.met.completed.Value(), s.met.cacheHits.Value()
	if sub != 2*n || ran+hits != 2*n || ran < 1 {
		t.Fatalf("submitted %d, completed %d, cache hits %d; want %d = completed + hits", sub, ran, hits, 2*n)
	}
}

// TestRunOneHonoursDeadlineAndCachesOnlyCompleted: RunOne applies the
// request's deadline_ms like a worker does, and an aborted run is not
// cached, so a repeat runs again.
func TestRunOneHonoursDeadlineAndCachesOnlyCompleted(t *testing.T) {
	s := testServer(t)
	req := Request{Netlist: ringNetlist, Horizon: 1e12, MaxEvents: 100_000_000, DeadlineMS: 20}
	for i := 0; i < 2; i++ {
		rec, err := s.RunOne(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if rec.Status != StatusAborted || rec.Class != string(sim.ClassDeadline) || rec.Cached {
			t.Fatalf("run %d: status %s class %s cached %v", i, rec.Status, rec.Class, rec.Cached)
		}
	}
}

// TestListAndEndpoints smoke-tests the read-side API.
func TestListAndEndpoints(t *testing.T) {
	s := testServer(t)
	h := s.Handler()
	rec := submitWait(t, h, Request{Netlist: bufNetlist, Inputs: map[string]string{"i": "0 r@1"}, Horizon: 10})

	w := doJSON(t, h, "GET", "/v1/jobs", nil)
	var list struct {
		Jobs []Record `json:"jobs"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &list); err != nil || len(list.Jobs) != 1 {
		t.Fatalf("list: %v, %s", err, w.Body.String())
	}
	if list.Jobs[0].ID != rec.ID || list.Jobs[0].Result != nil {
		t.Fatalf("list entry = %+v, want id %s without result payload", list.Jobs[0], rec.ID)
	}

	w = doJSON(t, h, "GET", "/v1/circuits", nil)
	if w.Code != http.StatusOK || !strings.Contains(w.Body.String(), `"spf"`) {
		t.Fatalf("circuits: %d %s", w.Code, w.Body.String())
	}
	if w := doJSON(t, h, "GET", "/v1/jobs/job-999999", nil); w.Code != http.StatusNotFound {
		t.Fatalf("missing job: status %d, want 404", w.Code)
	}
	if w := doJSON(t, h, "GET", "/version", nil); w.Code != http.StatusOK || !strings.Contains(w.Body.String(), "simd") {
		t.Fatalf("version: %d %s", w.Code, w.Body.String())
	}
}

// TestDrainFlushesRecords checks the graceful-shutdown contract: draining
// rejects new work, finishes existing work, and flushes every job record.
func TestDrainFlushesRecords(t *testing.T) {
	s := New(Config{Workers: 2, QueueDepth: 8})
	h := s.Handler()
	submitWait(t, h, Request{Netlist: bufNetlist, Inputs: map[string]string{"i": "0 r@1"}, Horizon: 10})

	s.Drain(5 * time.Second)

	if w := doJSON(t, h, "GET", "/healthz", nil); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("healthz while drained: status %d, want 503", w.Code)
	}
	if w := doJSON(t, h, "POST", "/v1/jobs", Request{Netlist: bufNetlist}); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("submit while drained: status %d, want 503", w.Code)
	}
	var buf bytes.Buffer
	if err := s.WriteJobRecords(&buf); err != nil {
		t.Fatalf("WriteJobRecords: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 1 {
		t.Fatalf("job records = %d lines, want 1:\n%s", len(lines), buf.String())
	}
	var rec Record
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil || rec.Status != StatusCompleted {
		t.Fatalf("flushed record: %v, %s", err, lines[0])
	}
}

// TestDrainCancelsStragglers submits an effectively endless job and drains
// with a short timeout: the job must finish as a typed canceled abort and
// its terminal record must be flushed.
func TestDrainCancelsStragglers(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 8})
	h := s.Handler()

	w := doJSON(t, h, "POST", "/v1/jobs", Request{Netlist: ringNetlist, Horizon: 1e12, MaxEvents: 2_000_000_000})
	if w.Code != http.StatusAccepted {
		t.Fatalf("async submit: status %d: %s", w.Code, w.Body.String())
	}
	rec := decodeRecord(t, w)

	deadline := time.Now().Add(5 * time.Second)
	for {
		j, _ := s.lookup(rec.ID)
		if j.snapshot().Status == StatusRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never started")
		}
		time.Sleep(time.Millisecond)
	}

	s.Drain(50 * time.Millisecond)

	j, _ := s.lookup(rec.ID)
	got := j.snapshot()
	if got.Status != StatusAborted || got.Class != string(sim.ClassCanceled) {
		t.Fatalf("straggler record = %s/%q, want aborted/canceled (error: %s)", got.Status, got.Class, got.Error)
	}
}

// TestQueueFullRejects fills the pool and queue with slow jobs and expects
// the overflow submit to bounce with 503 + the queue-full metric.
func TestQueueFullRejects(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 1})
	t.Cleanup(func() { s.Drain(10 * time.Second) })
	h := s.Handler()

	slow := Request{Netlist: ringNetlist, Horizon: 1e12, MaxEvents: 100_000_000}
	// Distinct seeds dodge the cache and make each submission unique.
	for i := 0; ; i++ {
		slow.Seed = int64(i)
		w := doJSON(t, h, "POST", "/v1/jobs", slow)
		if w.Code == http.StatusServiceUnavailable {
			if got := s.met.queueFull.Value(); got == 0 {
				t.Fatal("queue-full metric not bumped")
			}
			break
		}
		if w.Code != http.StatusAccepted {
			t.Fatalf("submit %d: status %d: %s", i, w.Code, w.Body.String())
		}
		if i > 10 {
			t.Fatal("queue never filled")
		}
	}
	s.Drain(50 * time.Millisecond) // cancel the deliberately endless jobs
}

// retryAfterIn asserts a Retry-After header parses and lands inside
// [base, base+spread] — the jittered window, not an exact value: identical
// refusals must not tell a fleet of clients to return in the same instant.
func retryAfterIn(t *testing.T, got string, base, spread int) {
	t.Helper()
	n, err := strconv.Atoi(got)
	if err != nil {
		t.Fatalf("Retry-After = %q, want integer seconds", got)
	}
	if n < base || n > base+spread {
		t.Fatalf("Retry-After = %d, want in [%d, %d]", n, base, base+spread)
	}
}

// TestJitterStreamPinned pins the Retry-After jitter stream to its values
// before the mixer moved onto internal/splitmix.
func TestJitterStreamPinned(t *testing.T) {
	s := New(Config{})
	var got []int
	for i := 0; i < 8; i++ {
		got = append(got, s.jitterN(30))
	}
	if want := []int{16, 25, 2, 4, 4, 24, 15, 3}; !reflect.DeepEqual(got, want) {
		t.Fatalf("jitterN stream %v, want %v", got, want)
	}
}

// TestRetryAfterOn503 asserts a jittered Retry-After header rides along
// with both 503 paths — a full queue (transient: short) and a draining
// server (permanent: long) — so polite clients can back off without
// guessing or stampeding back together.
func TestRetryAfterOn503(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 1})
	t.Cleanup(func() { s.Drain(10 * time.Second) })
	h := s.Handler()

	slow := Request{Netlist: ringNetlist, Horizon: 1e12, MaxEvents: 100_000_000}
	for i := 0; ; i++ {
		slow.Seed = int64(i)
		w := doJSON(t, h, "POST", "/v1/jobs", slow)
		if w.Code == http.StatusServiceUnavailable {
			retryAfterIn(t, w.Header().Get("Retry-After"), retryQueueFullBase, retryQueueFullSpread)
			break
		}
		if i > 10 {
			t.Fatal("queue never filled")
		}
	}
	s.Drain(50 * time.Millisecond) // cancel the deliberately endless jobs

	if w := doJSON(t, h, "POST", "/v1/jobs", Request{Netlist: bufNetlist}); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: status %d, want 503", w.Code)
	} else {
		retryAfterIn(t, w.Header().Get("Retry-After"), retryDrainingBase, retryDrainingSpread)
	}
	if w := doJSON(t, h, "GET", "/healthz", nil); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining: status %d, want 503", w.Code)
	} else {
		retryAfterIn(t, w.Header().Get("Retry-After"), retryDrainingBase, retryDrainingSpread)
	}
}

// TestAdvertiseEchoed round-trips the advertised address through /healthz
// and /version, and checks both omit it when unconfigured.
func TestAdvertiseEchoed(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 1, Advertise: "node-a:8080"})
	t.Cleanup(func() { s.Drain(time.Second) })
	h := s.Handler()

	var hlth api.Health
	w := doJSON(t, h, "GET", "/healthz", nil)
	if err := json.Unmarshal(w.Body.Bytes(), &hlth); err != nil || w.Code != http.StatusOK {
		t.Fatalf("healthz: %d %v %s", w.Code, err, w.Body.String())
	}
	if hlth.Advertise != "node-a:8080" || hlth.Status != "ok" {
		t.Fatalf("healthz payload = %+v, want ok/node-a:8080", hlth)
	}
	var ver api.Version
	w = doJSON(t, h, "GET", "/version", nil)
	if err := json.Unmarshal(w.Body.Bytes(), &ver); err != nil {
		t.Fatalf("version: %v", err)
	}
	if ver.Advertise != "node-a:8080" || ver.Service != "simd" {
		t.Fatalf("version payload = %+v, want simd/node-a:8080", ver)
	}

	bare := New(Config{Workers: 1, QueueDepth: 1})
	t.Cleanup(func() { bare.Drain(time.Second) })
	w = doJSON(t, bare.Handler(), "GET", "/healthz", nil)
	if strings.Contains(w.Body.String(), "advertise") {
		t.Fatalf("unconfigured advertise leaked into healthz: %s", w.Body.String())
	}
}

// TestBuiltinSPFResultsPinned pins the built-in SPF job's ResultHash per
// adversary: the circuit is built from experiments.SPFNetlist, and these
// are the hashes the earlier in-memory spf.System construction produced.
func TestBuiltinSPFResultsPinned(t *testing.T) {
	h := testServer(t).Handler()
	for _, c := range []struct{ adv, in, want string }{
		{"zero", "0 r@1 f@2.26", "3aef4923606ae5ff31c831718d86d1049a5ee87f72953d4cc3f1a065e7be6dea"},
		{"worst", "0 r@1 f@2.26", "f537887c24bacc9d554066b5a0209d5d1841d4d13244bb2de82245381f78267b"},
		{"maxup", "0 r@1 f@2.26", "3aef4923606ae5ff31c831718d86d1049a5ee87f72953d4cc3f1a065e7be6dea"},
		{"uniform", "0 r@1 f@2.26", "78dacea503673df4508e5104fc22972dc9b2ea3042a397e750f819e40d6bffc1"},
		{"zero", "0 r@1 f@1.9 r@5 f@6.3 r@10 f@11.2", "7bdf1c9036a248b3163aefbebe83b3748a5bc5c83d4138a041d742319d9b576c"},
		{"worst", "0 r@1 f@1.9 r@5 f@6.3 r@10 f@11.2", "7bdf1c9036a248b3163aefbebe83b3748a5bc5c83d4138a041d742319d9b576c"},
		{"maxup", "0 r@1 f@1.9 r@5 f@6.3 r@10 f@11.2", "1af0792b1e04d60facfecf5aa344620cab4d5e209e31eff63b8ab6b86245919e"},
		{"uniform", "0 r@1 f@1.9 r@5 f@6.3 r@10 f@11.2", "7bdf1c9036a248b3163aefbebe83b3748a5bc5c83d4138a041d742319d9b576c"},
	} {
		rec := submitWait(t, h, Request{Circuit: "spf", Adversary: c.adv, Seed: 7,
			Inputs: map[string]string{"i": c.in}, Horizon: 80})
		if rec.Status != StatusCompleted || rec.ResultHash != c.want {
			t.Errorf("%s %q: status %s, result %s, want %s", c.adv, c.in, rec.Status, rec.ResultHash, c.want)
		}
	}
}
