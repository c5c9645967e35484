package main

import (
	"context"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"involution/internal/cluster"
	"involution/internal/obs/tracing"
	"involution/internal/server"
)

// startNamedNode is startNode with an Advertise label, so the node's spans
// carry a recognizable name in the merged timeline.
func startNamedNode(t *testing.T, name string) string {
	t.Helper()
	s := server.New(server.Config{Workers: 2, QueueDepth: 64, Advertise: name})
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		hs.Close()
		s.Drain(5 * time.Second)
	})
	return hs.Listener.Addr().String()
}

// TestTraceTwoNodeTimeline is the end-to-end trace smoke: a sharded
// campaign run with -trace-out against two nodes, then `simctl trace`
// over the local span file plus both nodes' flight recorders. The
// rendered timeline must stitch all three processes (simctl, node-a,
// node-b) into one trace whose span window fits inside the observed
// wall time of the run.
func TestTraceTwoNodeTimeline(t *testing.T) {
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
	nodeA := startNamedNode(t, "node-a")
	nodeB := startNamedNode(t, "node-b")
	peers := nodeA + "," + nodeB
	spansPath := filepath.Join(dir, "spans.jsonl")

	begin := time.Now()
	code, out := runCLI(t, "campaign",
		"-peers", peers,
		"-f", netPath,
		"-in", "i=0 r@1 f@5",
		"-horizon", "20",
		"-trace-out", spansPath)
	elapsed := time.Since(begin)
	if code != 0 {
		t.Fatalf("campaign: exit %d\n%s", code, out)
	}

	// The campaign announces its trace id up front.
	var traceID string
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "trace ") {
			traceID = strings.Fields(line)[1]
		}
	}
	if !isTraceID(traceID) {
		t.Fatalf("campaign printed no trace id:\n%s", out)
	}

	code, rendered := runCLI(t, "trace", traceID, "-peers", peers, "-spans", spansPath)
	if code != 0 {
		t.Fatalf("trace: exit %d\n%s", code, rendered)
	}
	if !strings.Contains(rendered, "trace "+traceID) {
		t.Fatalf("timeline header lacks the trace id:\n%s", rendered)
	}
	for _, want := range []string{"simctl", "node-a", "node-b", "campaign", "scenario", "dispatch", "attempt", "job", "sim", "merge"} {
		if !strings.Contains(rendered, want) {
			t.Fatalf("timeline lacks %q — the trace does not cover all three processes:\n%s", want, rendered)
		}
	}

	// Rebuild the timeline from the same sources and check the span window
	// fits the run: no span starts before the campaign root, and the whole
	// window is bounded by the observed wall time (all processes share one
	// clock here).
	f, err := os.Open(spansPath)
	if err != nil {
		t.Fatal(err)
	}
	spans, err := tracing.ReadJSONL(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	client := cluster.NewClient(time.Second, nil, "")
	for _, addr := range []string{nodeA, nodeB} {
		entries, err := client.DebugJobs(context.Background(), addr, "?trace="+traceID)
		if err != nil {
			t.Fatalf("fetch %s: %v", addr, err)
		}
		if len(entries) == 0 {
			t.Fatalf("node %s retained no jobs for the trace — shards did not reach both nodes", addr)
		}
		for _, e := range entries {
			spans = append(spans, e.Spans...)
		}
	}
	tl := tracing.NewTimeline(traceID, spans)
	if nodes := tl.Nodes(); len(nodes) != 3 {
		t.Fatalf("timeline nodes = %v, want simctl + node-a + node-b", nodes)
	}
	if tl.Wall() <= 0 || tl.Wall() > elapsed+time.Second {
		t.Fatalf("timeline wall %v outside the run's observed wall %v", tl.Wall(), elapsed)
	}
}

// TestTraceUsage pins the trace/top argument validation.
func TestTraceUsage(t *testing.T) {
	if code, out := runCLI(t, "trace"); code != 1 || !strings.Contains(out, "trace-id") {
		t.Errorf("trace without args: exit %d, output %q", code, out)
	}
	if code, out := runCLI(t, "trace", "deadbeef"); code != 1 || !strings.Contains(out, "-peers") {
		t.Errorf("trace without sources: exit %d, output %q", code, out)
	}
	if code, out := runCLI(t, "top"); code != 1 || !strings.Contains(out, "-peers") {
		t.Errorf("top without peers: exit %d, output %q", code, out)
	}
}

// TestTopOnce exercises the single-shot top table against a live node.
func TestTopOnce(t *testing.T) {
	dir := t.TempDir()
	netPath := filepath.Join(dir, "pipe.net")
	const pipe = `circuit pipe
input i
output o
gate b1 BUF init=0
channel i b1 0 pure d=1
channel b1 o 0 zero
`
	if err := os.WriteFile(netPath, []byte(pipe), 0o644); err != nil {
		t.Fatal(err)
	}
	node := startNamedNode(t, "node-top")
	if code, out := runCLI(t, "campaign", "-peers", node, "-f", netPath, "-horizon", "20"); code != 0 {
		t.Fatalf("campaign: exit %d\n%s", code, out)
	}
	code, out := runCLI(t, "top", "-peers", node, "-n", "5", "-once")
	if code != 0 {
		t.Fatalf("top: exit %d\n%s", code, out)
	}
	if !strings.Contains(out, "DURATION") || !strings.Contains(out, "node-top") {
		t.Fatalf("top table lacks header or node rows:\n%s", out)
	}
}

// TestTopShowsDrainingNode pins that a draining node, whose /healthz
// answers 503 with its snapshot, is listed as draining — not down — while
// an unreachable address is down.
func TestTopShowsDrainingNode(t *testing.T) {
	s := server.New(server.Config{Workers: 3, QueueDepth: 8})
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(hs.Close)
	s.Drain(5 * time.Second)
	node := hs.Listener.Addr().String()

	code, out := runCLI(t, "top", "-peers", node+",127.0.0.1:1", "-once", "-timeout", "2s")
	if code != 0 {
		t.Fatalf("top: exit %d\n%s", code, out)
	}
	var drainRow, downRow string
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, node+" ") {
			drainRow = line
		} else if strings.HasPrefix(line, "127.0.0.1:1 ") {
			downRow = line
		}
	}
	if f := strings.Fields(drainRow); len(f) < 5 || f[1] != "draining" || f[4] != "3" {
		t.Fatalf("draining node row = %q, want status draining and width 3:\n%s", drainRow, out)
	}
	if f := strings.Fields(downRow); len(f) < 2 || f[1] != "down" {
		t.Fatalf("unreachable node row = %q, want down:\n%s", downRow, out)
	}
}
