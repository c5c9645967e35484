package cluster

import (
	"bytes"
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

func TestResultHashOfIgnoresIndentation(t *testing.T) {
	compact := json.RawMessage(`{"a":1,"b":[1,2,3]}`)
	indented := json.RawMessage("{\n  \"a\": 1,\n  \"b\": [\n    1,\n    2,\n    3\n  ]\n}")
	h1, h2 := api.ResultHashOf(compact), api.ResultHashOf(indented)
	if h1 == "" || h1 != h2 {
		t.Fatalf("hashes differ across re-indentation: %q vs %q", h1, h2)
	}
	if api.ResultHashOf(json.RawMessage(`{"a":2}`)) == h1 {
		t.Fatal("different payloads hash identically")
	}
	if api.ResultHashOf(nil) != "" || api.ResultHashOf(json.RawMessage(`{"broken`)) != "" {
		t.Fatal("empty/invalid payloads must hash to \"\"")
	}
}

func TestServerStampsResultHash(t *testing.T) {
	addr := startNode(t, server.Config{})
	c := NewClient(10*time.Second, nil, "")
	req := api.Request{Netlist: bufNetlist, Horizon: 10}
	rec, err := submitReq(c, addr, req)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if rec.ResultHash == "" {
		t.Fatal("completed record has no ResultHash")
	}
	if got := api.ResultHashOf(rec.Result); got != rec.ResultHash {
		t.Fatalf("stamped hash %s does not match payload hash %s", rec.ResultHash, got)
	}
	// The cached fast path must stamp identically.
	rec2, err := submitReq(c, addr, req)
	if err != nil {
		t.Fatalf("cached Submit: %v", err)
	}
	if !rec2.Cached || rec2.ResultHash != rec.ResultHash {
		t.Fatalf("cached record: cached=%v hash=%s, want cached with hash %s", rec2.Cached, rec2.ResultHash, rec.ResultHash)
	}
}

// corruptingProxy fronts a real node, corrupting the first n response
// bodies by bumping a digit inside the result payload — valid JSON, wrong
// content, exactly what only the integrity hash can catch.
func corruptingProxy(t *testing.T, addr string, n int64) (string, *atomic.Int64) {
	t.Helper()
	var corrupted atomic.Int64
	proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		r2, _ := http.NewRequest(r.Method, "http://"+addr+r.URL.RequestURI(), r.Body)
		r2.Header = r.Header
		resp, err := http.DefaultClient.Do(r2)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if ck := resp.Header.Get(api.ContentKeyHeader); ck != "" {
			w.Header().Set(api.ContentKeyHeader, ck)
		}
		if corrupted.Load() < n && bytes.Contains(body, []byte(`"horizon":10`)) {
			body = bytes.Replace(body, []byte(`"horizon":10`), []byte(`"horizon":99`), 1)
			corrupted.Add(1)
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(resp.StatusCode)
		w.Write(body)
	}))
	t.Cleanup(proxy.Close)
	return proxy.Listener.Addr().String(), &corrupted
}

// TestClientDetectsCorruptedResult sends one submit through a proxy that
// corrupts the first response: the client's single attempt must surface
// an IntegrityError and count it, and the next call must accept the clean
// record.
func TestClientDetectsCorruptedResult(t *testing.T) {
	addr := startNode(t, server.Config{})
	proxyAddr, corrupted := corruptingProxy(t, addr, 1)

	var failures atomic.Int64
	c := NewClient(10*time.Second, nil, "")
	c.onIntegrity = func() { failures.Add(1) }
	req := api.Request{Netlist: bufNetlist, Horizon: 10}
	_, err := submitReq(c, proxyAddr, req)
	var ie *IntegrityError
	if !errors.As(err, &ie) {
		t.Fatalf("err = %v, want *IntegrityError", err)
	}
	if !ie.Temporary() {
		t.Fatal("IntegrityError must be Temporary")
	}
	rec, err := submitReq(c, proxyAddr, req)
	if err != nil {
		t.Fatalf("second submit: %v", err)
	}
	if got := corrupted.Load(); got != 1 {
		t.Fatalf("proxy corrupted %d responses, want 1", got)
	}
	if got := failures.Load(); got != 1 {
		t.Fatalf("onIntegrity fired %d times, want 1", got)
	}
	// The accepted record is the clean one.
	if api.ResultHashOf(rec.Result) != rec.ResultHash {
		t.Fatal("accepted record fails its own hash")
	}
}

func TestClientDetectsWrongJobEcho(t *testing.T) {
	addr := startNode(t, server.Config{})
	proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		r2, _ := http.NewRequest(r.Method, "http://"+addr+r.URL.RequestURI(), r.Body)
		r2.Header = r.Header
		resp, err := http.DefaultClient.Do(r2)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		defer resp.Body.Close()
		// A lying intermediary: echo some other request's content key.
		w.Header().Set(api.ContentKeyHeader, "deadbeef")
		w.WriteHeader(resp.StatusCode)
		io.Copy(w, resp.Body)
	}))
	t.Cleanup(proxy.Close)

	c := NewClient(10*time.Second, nil, "")
	_, err := submitReq(c, proxy.Listener.Addr().String(), api.Request{Netlist: bufNetlist, Horizon: 10})
	var ie *IntegrityError
	if !errors.As(err, &ie) {
		t.Fatalf("err = %v, want *IntegrityError (wrong-job echo)", err)
	}
}

func TestVerifyRecordRules(t *testing.T) {
	raw := json.RawMessage(`{"status":"completed"}`)
	good := api.Record{Status: api.StatusCompleted, Result: raw, ResultHash: api.ResultHashOf(raw)}
	if err := verifyRecord("n", &good); err != nil {
		t.Fatalf("good record rejected: %v", err)
	}
	cases := []struct {
		name string
		rec  api.Record
	}{
		{"unknown status", api.Record{Status: "exploded"}},
		{"completed without result", api.Record{Status: api.StatusCompleted}},
		{"completed without hash", api.Record{Status: api.StatusCompleted, Result: raw}},
		{"hash mismatch", api.Record{Status: api.StatusCompleted, Result: raw, ResultHash: "beef"}},
		{"invalid payload json", api.Record{Status: api.StatusAborted, Result: json.RawMessage(`{"x`), ResultHash: "beef"}},
	}
	for _, c := range cases {
		var ie *IntegrityError
		if err := verifyRecord("n", &c.rec); !errors.As(err, &ie) {
			t.Errorf("%s: err = %v, want *IntegrityError", c.name, err)
		}
	}
	// Aborted without a hash is legal (aborted results are not cached, and
	// old nodes may not stamp at all).
	ab := api.Record{Status: api.StatusAborted, Result: raw}
	if err := verifyRecord("n", &ab); err != nil {
		t.Fatalf("aborted record without hash rejected: %v", err)
	}
}

// TestVerifyRecordAcceptsIndentedResult: nodes send compact results, but a
// node that pretty-prints them (as older ones did) must still verify, and
// a corrupted result must fail whichever way it is spelled.
func TestVerifyRecordAcceptsIndentedResult(t *testing.T) {
	compact := json.RawMessage(`{"status":"completed","horizon":10,"outputs":{"o":"0 r@1 f@2"}}`)
	var buf bytes.Buffer
	if err := json.Indent(&buf, compact, "", "  "); err != nil {
		t.Fatal(err)
	}
	indented := json.RawMessage(buf.Bytes())
	hash := api.ResultHashOf(compact)
	for name, raw := range map[string]json.RawMessage{"compact": compact, "indented": indented} {
		rec := api.Record{Status: api.StatusCompleted, Result: raw, ResultHash: hash}
		if err := verifyRecord("n", &rec); err != nil {
			t.Errorf("%s result rejected: %v", name, err)
		}
		bad := api.Record{Status: api.StatusCompleted, Result: bytes.Replace(raw, []byte("10"), []byte("99"), 1), ResultHash: hash}
		var ie *IntegrityError
		if err := verifyRecord("n", &bad); !errors.As(err, &ie) {
			t.Errorf("corrupted %s result: err = %v, want *IntegrityError", name, err)
		}
	}
}
