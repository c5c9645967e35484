package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"involution/internal/server"
)

// startNode runs a real simd server over httptest and returns its address.
func startNode(t *testing.T) string {
	t.Helper()
	s := server.New(server.Config{Workers: 2, QueueDepth: 64})
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		hs.Close()
		s.Drain(5 * time.Second)
	})
	return hs.Listener.Addr().String()
}

func runCLI(t *testing.T, args ...string) (int, string) {
	t.Helper()
	var out, errb bytes.Buffer
	code := run(args, &out, &errb)
	return code, out.String() + errb.String()
}

// TestSweepShardedByteIdentical is the tentpole acceptance check at the
// CLI level: the Theorem 9 sweep's merged CSV is byte-identical whether
// the fleet has 1, 2 or 4 nodes.
func TestSweepShardedByteIdentical(t *testing.T) {
	dir := t.TempDir()
	var reference []byte
	for _, peers := range []int{1, 2, 4} {
		addrs := make([]string, peers)
		for i := range addrs {
			addrs[i] = startNode(t)
		}
		path := filepath.Join(dir, fmt.Sprintf("sweep-%d.csv", peers))
		code, log := runCLI(t, "sweep",
			"-peers", strings.Join(addrs, ","),
			"-adversaries", "zero,worst",
			"-horizon", "200",
			"-csv", path)
		if code != 0 {
			t.Fatalf("%d nodes: exit %d\n%s", peers, code, log)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Contains(got, []byte("filtered")) || !bytes.Contains(got, []byte("latched")) {
			t.Fatalf("%d nodes: sweep CSV lacks the Theorem 9 regimes:\n%s", peers, got)
		}
		if bytes.Contains(got, []byte("aborted")) {
			t.Fatalf("%d nodes: sweep CSV contains aborted rows:\n%s", peers, got)
		}
		if reference == nil {
			reference = got
			continue
		}
		if !bytes.Equal(got, reference) {
			t.Fatalf("%d-node CSV differs from 1-node reference:\n%s\nvs\n%s", peers, got, reference)
		}
	}
}

// TestCampaignSurvivesNodeKilledMidRun kills one of two workers while the
// sharded campaign is in flight and asserts the merged report is still
// byte-identical to the single-node reference — dead-node shards are
// rescheduled on the survivor.
func TestCampaignSurvivesNodeKilledMidRun(t *testing.T) {
	dir := t.TempDir()
	netPath := filepath.Join(dir, "pipe.net")
	const pipe = `circuit pipe
input i
output o
gate b1 BUF init=0
gate b2 BUF init=0
channel i b1 0 pure d=1
channel b1 b2 0 pure d=1
channel b2 o 0 zero
`
	if err := os.WriteFile(netPath, []byte(pipe), 0o644); err != nil {
		t.Fatal(err)
	}
	campaign := func(peers []string, csv string) (int, string) {
		return runCLI(t, "campaign",
			"-peers", strings.Join(peers, ","),
			"-f", netPath,
			"-in", "i=0 r@1 f@5",
			"-horizon", "20",
			"-csv", csv)
	}

	refPath := filepath.Join(dir, "ref.csv")
	if code, log := campaign([]string{startNode(t)}, refPath); code != 0 {
		t.Fatalf("reference run: exit %d\n%s", code, log)
	}
	reference, err := os.ReadFile(refPath)
	if err != nil {
		t.Fatal(err)
	}

	// The victim dies (connections dropped, listener closed, further
	// dials refused) after its 5th request — mid-run, with shards still
	// in flight.
	survivor := startNode(t)
	victim, victimSeen := newVictimNode(t, 5)
	gotPath := filepath.Join(dir, "killed.csv")
	if code, log := campaign([]string{survivor, victim}, gotPath); code != 0 {
		t.Fatalf("kill run: exit %d\n%s", code, log)
	}
	if n := victimSeen(); n < 5 {
		t.Fatalf("victim saw only %d requests; the kill never happened and rescheduling went untested", n)
	}
	got, err := os.ReadFile(gotPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, reference) {
		t.Fatalf("report after mid-run node death differs from reference:\n%s\nvs\n%s", got, reference)
	}
}

// newVictimNode starts a real simd node that simulates a SIGKILL after
// limit requests: every live connection is dropped and the listener
// closed, so in-flight shards fail transport-level and later dials are
// refused — exactly what a coordinator sees when a worker process dies.
func newVictimNode(t *testing.T, limit int) (string, func() int) {
	t.Helper()
	s := server.New(server.Config{Workers: 2, QueueDepth: 64})
	inner := s.Handler()
	var (
		mu   sync.Mutex
		seen int
	)
	var hs *httptest.Server
	hs = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		seen++
		n := seen
		mu.Unlock()
		if n >= limit {
			if n == limit {
				// Kill asynchronously: Close waits for this very handler.
				go func() {
					hs.CloseClientConnections()
					hs.Close()
				}()
			}
			// Die on this request too: drop the connection without a
			// response.
			if hj, ok := w.(http.Hijacker); ok {
				if conn, _, err := hj.Hijack(); err == nil {
					conn.Close()
					return
				}
			}
			panic(http.ErrAbortHandler)
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(func() {
		hs.Close() // no-op when the kill already closed it
		s.Drain(time.Second)
	})
	return hs.Listener.Addr().String(), func() int {
		mu.Lock()
		defer mu.Unlock()
		return seen
	}
}

// TestUsage pins the CLI's error paths.
func TestUsage(t *testing.T) {
	if code, _ := runCLI(t); code != 1 {
		t.Errorf("no args: exit %d, want 1", code)
	}
	if code, _ := runCLI(t, "bogus"); code != 1 {
		t.Errorf("unknown command: exit %d, want 1", code)
	}
	if code, out := runCLI(t, "sweep"); code != 1 || !strings.Contains(out, "-peers") {
		t.Errorf("sweep without peers: exit %d, output %q", code, out)
	}
	if code, out := runCLI(t, "campaign", "-f", "/nonexistent/design.net"); code != 1 || !strings.Contains(out, "design.net") {
		t.Errorf("campaign with a missing netlist: exit %d, output %q", code, out)
	}
	if code, out := runCLI(t, "campaign", "-resume"); code != 1 || !strings.Contains(out, "-checkpoint") {
		t.Errorf("campaign -resume without -checkpoint: exit %d, output %q", code, out)
	}
	if code, _ := runCLI(t, "help"); code != 0 {
		t.Errorf("help: exit %d, want 0", code)
	}
}
