package main

import (
	"context"
	"errors"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"involution/internal/chaos"
	"involution/internal/cluster"
)

// buildSimctl compiles this command into dir and returns the binary path
// (chaos-soak re-execs itself per leg, so the test needs a real binary).
func buildSimctl(t *testing.T, dir string) string {
	t.Helper()
	bin := filepath.Join(dir, "simctl")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// TestChaosSoak runs the full soak against two in-process nodes: clean
// baseline, one seeded chaos schedule (corruption caught by integrity
// hashes, outputs byte-identical), and the coordinator SIGKILL + -resume
// leg replaying journaled shards.
func TestChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary and runs multi-leg sweeps")
	}
	dir := t.TempDir()
	bin := buildSimctl(t, dir)
	peers := startNode(t) + "," + startNode(t)

	code, log := runCLI(t, "chaos-soak",
		"-peers", peers,
		"-schedules", "1",
		"-self", bin,
		"-dir", filepath.Join(dir, "soak"))
	if code != 0 {
		t.Fatalf("chaos-soak exit %d\n%s", code, log)
	}
	for _, want := range []string{
		"chaos-0: byte-identical",
		"corruptions caught",
		"shards replayed from the journal",
		"chaos-soak: PASS",
	} {
		if !strings.Contains(log, want) {
			t.Fatalf("soak log lacks %q:\n%s", want, log)
		}
	}
}

// TestChaosSweepByteIdentical is the direct CLI-level chaos check without
// subprocesses: a sweep through a generated chaos schedule must equal the
// clean sweep byte for byte and must report caught integrity failures.
func TestChaosSweepByteIdentical(t *testing.T) {
	dir := t.TempDir()
	peers := startNode(t) + "," + startNode(t)

	// Write a generated schedule through the same path the soak uses
	// (peers bound the refusing rules' blast radius to a strict subset).
	s := &soak{dir: dir, peers: strings.Split(peers, ",")}
	schedPath, err := s.writeSchedule("sched", 7, 0)
	if err != nil {
		t.Fatal(err)
	}

	sweep := func(name string, extra ...string) ([]byte, string) {
		csv := filepath.Join(dir, name+".csv")
		args := append([]string{"sweep",
			"-peers", peers,
			"-adversaries", "zero,worst",
			"-horizon", "200",
			"-retries", "10",
			"-csv", csv}, extra...)
		code, log := runCLI(t, args...)
		if code != 0 {
			t.Fatalf("%s: exit %d\n%s", name, code, log)
		}
		data, err := os.ReadFile(csv)
		if err != nil {
			t.Fatal(err)
		}
		return data, log
	}

	clean, _ := sweep("clean")
	chaotic, log := sweep("chaos", "-chaos", schedPath)
	if string(clean) != string(chaotic) {
		t.Fatalf("chaos sweep CSV differs from clean:\n%s\nvs\n%s", chaotic, clean)
	}
	if strings.Contains(log, " 0 integrity failures") {
		t.Fatalf("chaos sweep caught zero corruptions:\n%s", log)
	}
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// TestSoakVictimsAreDialedHosts pins that chaos-soak names its victims by
// the host:port the coordinator dials — the name the chaos transport
// matches rules against — even when -peers carries URL schemes and
// spaces. Otherwise the refusing faults never fire and the soak passes
// without testing them.
func TestSoakVictimsAreDialedHosts(t *testing.T) {
	const peers = "http://a:1, b:2"
	var dialed []string
	client := cluster.NewClient(time.Second, roundTripFunc(func(r *http.Request) (*http.Response, error) {
		dialed = append(dialed, r.URL.Host)
		return nil, errors.New("no network in this test")
	}), "")
	for _, p := range splitPeers(peers) {
		client.Health(context.Background(), p)
	}
	hosts, err := peerHosts(peers)
	if err != nil {
		t.Fatal(err)
	}
	victims := 0
	for k := 0; k < 3; k++ {
		for _, r := range chaos.Generate(7, k, hosts).Rules {
			for _, n := range r.Nodes {
				victims++
				if !slices.Contains(dialed, n) {
					t.Errorf("schedule %d names victim %q; the coordinator dials %q", k, n, dialed)
				}
			}
		}
	}
	if victims == 0 {
		t.Fatal("no generated rule names a victim node")
	}
}
