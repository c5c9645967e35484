package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"involution/internal/journal"
)

// TestAttackLocalDeterministic runs the seeded defeat-spf search twice
// in-process: it must find (C)-violating breaking attacks and render a
// byte-identical report both times.
func TestAttackLocalDeterministic(t *testing.T) {
	dir := t.TempDir()
	runOnce := func(name string) ([]byte, string) {
		csv := filepath.Join(dir, name+".csv")
		code, log := runCLI(t, "attack",
			"-searcher", "anneal",
			"-seed", "7",
			"-generations", "6",
			"-batch", "16",
			"-csv", csv)
		if code != 0 {
			t.Fatalf("%s: exit %d\n%s", name, code, log)
		}
		data, err := os.ReadFile(csv)
		if err != nil {
			t.Fatal(err)
		}
		return data, log
	}
	a, log := runOnce("first")
	b, _ := runOnce("second")
	if string(a) != string(b) {
		t.Fatalf("same seed, different CSV:\n%s\nvs\n%s", a, b)
	}
	for _, want := range []string{"VIOLATES (C)", "defeat out.tr=", "best-found attacks"} {
		if !strings.Contains(log, want) {
			t.Fatalf("attack report lacks %q:\n%s", want, log)
		}
	}
}

// TestAttackLocalMatchesFleet is the attack twin of
// TestCampaignFleetMatchesLocal: the in-process evaluator runs simd's own
// job path, so the same search with and without -peers writes a
// byte-identical CSV, reports the same dedup count and exits alike (2: no
// breaking attack found).
func TestAttackLocalMatchesFleet(t *testing.T) {
	dir := t.TempDir()
	peers := startNode(t) + "," + startNode(t)
	attack := func(name string, extra ...string) ([]byte, string) {
		csv := filepath.Join(dir, name+".csv")
		args := append([]string{"attack", "-seed", "7", "-generations", "6", "-batch", "16", "-csv", csv}, extra...)
		code, log := runCLI(t, args...)
		if code != 0 && code != 2 {
			t.Fatalf("%s: exit %d\n%s", name, code, log)
		}
		data, err := os.ReadFile(csv)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(log, "\n") {
			if strings.HasPrefix(line, "dedup: ") {
				return data, fmt.Sprintf("exit %d, %s", code, line)
			}
		}
		t.Fatalf("%s: no dedup line:\n%s", name, log)
		return nil, ""
	}
	for _, search := range [][]string{
		{"-objective", "defeat-spf", "-searcher", "anneal"},
		{"-objective", "max-stabilize", "-searcher", "cem"},
	} {
		local, localDedup := attack(search[1]+"-local", search...)
		fleet, fleetDedup := attack(search[1]+"-fleet", append(search, "-peers", peers)...)
		if !bytes.Equal(local, fleet) {
			t.Fatalf("%v: fleet CSV differs from in-process CSV:\n%s\nvs\n%s", search, fleet, local)
		}
		if localDedup != fleetDedup {
			t.Fatalf("%v: dedup %q in-process, %q on the fleet", search, localDedup, fleetDedup)
		}
	}
}

// TestAttackFleetKillResume is the crash-safety acceptance check: a
// fleet-backed search is SIGKILLed once the generation journal holds
// durable entries, resumed with -resume, and its final CSV must be
// byte-identical to an uninterrupted run's.
func TestAttackFleetKillResume(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary and runs fleet searches")
	}
	dir := t.TempDir()
	bin := buildSimctl(t, dir)
	peers := startNode(t) + "," + startNode(t)

	args := func(ckpt, csv string, resume bool) []string {
		a := []string{"attack",
			"-peers", peers,
			"-searcher", "anneal",
			"-seed", "7",
			"-generations", "6",
			"-batch", "16",
			"-checkpoint", ckpt,
			"-csv", csv}
		if resume {
			a = append(a, "-resume")
		}
		return a
	}

	// Uninterrupted reference run.
	refCSV := filepath.Join(dir, "ref.csv")
	out, err := exec.Command(bin, args(filepath.Join(dir, "ref.journal"), refCSV, false)...).CombinedOutput()
	if err != nil {
		t.Fatalf("reference run: %v\n%s", err, out)
	}

	// Killed run: SIGKILL as soon as two generations are durable.
	ckpt := filepath.Join(dir, "kill.journal")
	killCSV := filepath.Join(dir, "kill.csv")
	victim := exec.Command(bin, args(ckpt, killCSV, false)...)
	if err := victim.Start(); err != nil {
		t.Fatal(err)
	}
	exited := make(chan error, 1)
	go func() { exited <- victim.Wait() }()
	deadline := time.After(2 * time.Minute)
	killed := false
	for !killed {
		select {
		case <-exited:
			// Finished before the kill landed: resume will replay all six
			// generations, which still exercises the journal path.
			killed = true
		case <-deadline:
			victim.Process.Kill()
			t.Fatal("victim never journaled two generations")
		case <-time.After(2 * time.Millisecond):
			if journal.DurableRows(ckpt) >= 2 {
				victim.Process.Signal(syscall.SIGKILL)
				<-exited
				killed = true
			}
		}
	}

	// Resume in a fresh process; the CSV must match the reference byte
	// for byte (it deliberately omits cache-tier counters, which differ
	// between the warmed-up and cold fleet states).
	out, err = exec.Command(bin, args(ckpt, killCSV, true)...).CombinedOutput()
	if err != nil {
		t.Fatalf("resume run: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "VIOLATES (C)") {
		t.Fatalf("resumed report found no (C)-violating attack:\n%s", out)
	}
	ref, err := os.ReadFile(refCSV)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(killCSV)
	if err != nil {
		t.Fatal(err)
	}
	if string(ref) != string(got) {
		t.Fatalf("resumed CSV differs from uninterrupted run:\n%s\nvs\n%s", got, ref)
	}
}

// TestTopAttackSection renders `simctl top -attack` from a progress file
// without any fleet.
func TestTopAttackSection(t *testing.T) {
	dir := t.TempDir()
	progress := filepath.Join(dir, "spf.json")
	code, log := runCLI(t, "attack",
		"-searcher", "grid",
		"-generations", "2",
		"-batch", "8",
		"-seed", "1",
		"-progress", progress)
	// A two-generation grid sweep need not break anything; exit 2 (abort)
	// is the no-breaking-attack signal, not a failure.
	if code != 0 && code != 2 {
		t.Fatalf("attack exit %d\n%s", code, log)
	}
	code, log = runCLI(t, "top", "-attack", progress, "-once")
	if code != 0 {
		t.Fatalf("top exit %d\n%s", code, log)
	}
	if !strings.Contains(log, "ATTACK") || !strings.Contains(log, "defeat-spf") || !strings.Contains(log, "2/2 done") {
		t.Fatalf("top -attack output:\n%s", log)
	}
}
