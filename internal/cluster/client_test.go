package cluster

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"involution/internal/server"
	"involution/internal/server/api"
)

const bufNetlist = "circuit chain\ninput i\noutput o\ngate g BUF init=0\nchannel i g 0 pure d=1\nchannel g o 0 zero\n"

// startNode runs a real simd server over httptest and returns its base
// address (host:port).
func startNode(t *testing.T, cfg server.Config) string {
	t.Helper()
	if cfg.Workers == 0 {
		cfg.Workers = 2
	}
	if cfg.QueueDepth == 0 {
		cfg.QueueDepth = 16
	}
	s := server.New(cfg)
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		hs.Close()
		s.Drain(5 * time.Second)
	})
	return hs.Listener.Addr().String()
}

// submitReq encodes req and makes the client's one submit attempt.
func submitReq(c *Client, node string, req api.Request) (api.Record, error) {
	body, key, err := req.Encode()
	if err != nil {
		return api.Record{}, err
	}
	return c.submit(context.Background(), node, body, key)
}

// refusingProxy fronts a real node with a handler that answers the first n
// requests with code and Retry-After retryAfter, then passes through. It
// returns the proxy's address and its request count.
func refusingProxy(t *testing.T, addr string, n int64, code int, retryAfter string) (string, *atomic.Int64) {
	t.Helper()
	var seen atomic.Int64
	proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if seen.Add(1) <= n {
			w.Header().Set("Retry-After", retryAfter)
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(code)
			json.NewEncoder(w).Encode(api.ErrorBody{Error: http.StatusText(code)})
			return
		}
		r2, _ := http.NewRequest(r.Method, "http://"+addr+r.URL.RequestURI(), r.Body)
		r2.Header = r.Header
		resp, err := http.DefaultClient.Do(r2)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		defer resp.Body.Close()
		w.WriteHeader(resp.StatusCode)
		io.Copy(w, resp.Body)
	}))
	t.Cleanup(proxy.Close)
	return proxy.Listener.Addr().String(), &seen
}

func TestClientSubmitWaitRoundTrip(t *testing.T) {
	addr := startNode(t, server.Config{})
	c := NewClient(10*time.Second, nil, "")
	rec, err := submitReq(c, addr, api.Request{Netlist: bufNetlist, Horizon: 10})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if rec.Status != api.StatusCompleted {
		t.Fatalf("status = %s, want completed", rec.Status)
	}
	var p api.ResultPayload
	if err := json.Unmarshal(rec.Result, &p); err != nil {
		t.Fatalf("result payload: %v", err)
	}
	if p.Outputs["o"] == "" {
		t.Fatalf("payload has no output signal: %+v", p)
	}
}

func TestClientTerminalOn400(t *testing.T) {
	addr := startNode(t, server.Config{})
	c := NewClient(5*time.Second, nil, "")
	_, err := submitReq(c, addr, api.Request{Netlist: "not a netlist"})
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusBadRequest {
		t.Fatalf("err = %v, want StatusError 400", err)
	}
	if se.Temporary() {
		t.Fatal("400 must not be Temporary")
	}
}

func TestClientNoRetryBudgetSurfaces503(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "0")
		http.Error(w, `{"error":"queue full"}`, http.StatusServiceUnavailable)
	}))
	t.Cleanup(srv.Close)
	c := NewClient(2*time.Second, nil, "")
	_, err := submitReq(c, srv.Listener.Addr().String(), api.Request{Netlist: bufNetlist})
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusServiceUnavailable {
		t.Fatalf("err = %v, want StatusError 503", err)
	}
	if !se.Temporary() {
		t.Fatal("503 must be Temporary")
	}
}

func TestClientHealthAndVersion(t *testing.T) {
	addr := startNode(t, server.Config{Advertise: "advertised:1234", Version: "test-v1"})
	c := NewClient(2*time.Second, nil, "")
	h, err := c.Health(context.Background(), addr)
	if err != nil || h.Status != "ok" || h.Advertise != "advertised:1234" {
		t.Fatalf("Health = %+v, %v", h, err)
	}
	var v api.Version
	raw, err := c.get(context.Background(), addr, "/version")
	if err == nil {
		err = json.Unmarshal(raw, &v)
	}
	if err != nil || v.Service != "simd" || v.Version != "test-v1" || v.Advertise != "advertised:1234" {
		t.Fatalf("Version = %+v, %v", v, err)
	}
}

func TestClientConnectionRefused(t *testing.T) {
	c := NewClient(time.Second, nil, "")
	_, err := submitReq(c, "127.0.0.1:1", api.Request{Netlist: bufNetlist})
	if err == nil {
		t.Fatal("Submit to a dead address should fail")
	}
	var se *StatusError
	if errors.As(err, &se) {
		t.Fatalf("transport failure should not be a StatusError: %v", err)
	}
}

// TestRouteKeyPinned pins one RouteKey byte for byte — consistent-hash
// routing and cross-run lake dedup both depend on keys never drifting —
// and checks that the coordinator's one-marshal submit path sends exactly
// that key and a body that hashes to it.
func TestRouteKeyPinned(t *testing.T) {
	const pinned = "691bb85f0eb66f5f4d63b6f1f570ca0e853aae93443eaf127a7c68c89b036620"
	req := api.Request{
		Netlist:    bufNetlist,
		Inputs:     map[string]string{"i": "0 r@1 f@2", "__ctl": "0 r@3 f@3.5"},
		Horizon:    10,
		MaxEvents:  5000,
		DeadlineMS: 250,
	}
	if got := req.RouteKey(); got != pinned {
		t.Fatalf("RouteKey = %s, want %s", got, pinned)
	}
	body, key, err := req.Encode()
	if err != nil || key != pinned {
		t.Fatalf("Encode key = %s (err %v), want %s", key, err, pinned)
	}
	if sum := sha256.Sum256(body); hex.EncodeToString(sum[:]) != pinned {
		t.Fatal("Encode body does not hash to its key")
	}

	s := server.New(server.Config{Workers: 1})
	var sentKey, sentBody atomic.Value
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			raw, _ := io.ReadAll(r.Body)
			sentKey.Store(r.Header.Get(api.ContentKeyHeader))
			sentBody.Store(string(raw))
			r.Body = io.NopCloser(bytes.NewReader(raw))
		}
		s.Handler().ServeHTTP(w, r)
	}))
	t.Cleanup(func() {
		hs.Close()
		s.Drain(5 * time.Second)
	})
	coord := newTestCoordinator(t, Options{Peers: []string{hs.Listener.Addr().String()}})
	// The node refuses the request (no port __ctl in bufNetlist) with a
	// terminal 400; only what the coordinator sent matters here.
	if _, err := coord.RunOne(context.Background(), req); !isTerminalRequestError(err) {
		t.Fatalf("RunOne: %v, want the node's 400", err)
	}
	if got := sentKey.Load(); got != pinned {
		t.Fatalf("coordinator sent content key %v, want %s", got, pinned)
	}
	if got := sentBody.Load(); got != string(body) {
		t.Fatalf("coordinator sent body %v, want %s", got, body)
	}
}
