package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"involution/internal/journal"
	"involution/internal/sim"
)

// chainNetlist is a 3-buffer pipeline; driven with a long pulse train it
// yields a campaign slow enough (~seconds) to kill mid-flight.
const chainNetlist = `circuit chain
input i
output o
gate b1 BUF init=0
gate b2 BUF init=0
gate b3 BUF init=0
channel i b1 0 pure d=1
channel b1 b2 0 pure d=1
channel b2 b3 0 pure d=1
channel b3 o 0 zero
`

// pulseTrain renders "0 r@1 f@2 r@4 f@5 …": n pulses of width 1, period 3.
func pulseTrain(n int) string {
	var b strings.Builder
	b.WriteString("0")
	t := 1.0
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, " r@%g f@%g", t, t+1)
		t += 3
	}
	return b.String()
}

// TestKillAndResume SIGKILLs a checkpointed campaign mid-run and verifies
// the resumed run reproduces the uninterrupted report byte for byte.
func TestKillAndResume(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and kills a real process")
	}
	dir := t.TempDir()
	bin := buildSimctl(t, dir)
	net := writeFile(t, dir, "chain.net", chainNetlist)
	stim := "i=" + pulseTrain(2000)
	const horizon = "7000"

	refCSV := filepath.Join(dir, "ref.csv")
	ref := exec.Command(bin, "campaign", "-f", net, "-in", stim, "-horizon", horizon, "-workers", "2", "-csv", refCSV)
	if out, err := ref.CombinedOutput(); err != nil {
		t.Fatalf("reference run: %v\n%s", err, out)
	}

	ckpt := filepath.Join(dir, "run.ckpt")
	victimCSV := filepath.Join(dir, "victim.csv")
	victim := exec.Command(bin, "campaign", "-f", net, "-in", stim, "-horizon", horizon, "-workers", "2",
		"-checkpoint", ckpt, "-csv", victimCSV)
	if err := victim.Start(); err != nil {
		t.Fatal(err)
	}
	exited := make(chan error, 1)
	go func() { exited <- victim.Wait() }()

	// Kill as soon as the journal has a few durable rows — mid-run, with
	// work both behind and ahead of the checkpoint.
	killed := false
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		if rows := journal.DurableRows(ckpt); rows >= 3 {
			if err := victim.Process.Signal(syscall.SIGKILL); err == nil {
				killed = true
			}
			break
		}
		select {
		case <-exited:
			// Finished before we could kill it: the resume below degenerates
			// to a pure replay, which must still be byte-identical.
			t.Log("campaign finished before SIGKILL; resume degrades to full replay")
		case <-time.After(2 * time.Millisecond):
			continue
		}
		break
	}
	<-exited
	if killed {
		if rows := journal.DurableRows(ckpt); rows >= 109 {
			t.Log("journal complete despite SIGKILL; resume degrades to full replay")
		}
	}

	resumedCSV := filepath.Join(dir, "resumed.csv")
	resumed := exec.Command(bin, "campaign", "-f", net, "-in", stim, "-horizon", horizon, "-workers", "2",
		"-checkpoint", ckpt, "-resume", "-csv", resumedCSV)
	if out, err := resumed.CombinedOutput(); err != nil {
		t.Fatalf("resumed run: %v\n%s", err, out)
	}

	want, err := os.ReadFile(refCSV)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(resumedCSV)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("resumed CSV differs from uninterrupted run (killed=%v):\nwant %d bytes, got %d", killed, len(want), len(got))
	}
}

// TestInterruptFlushesPartialReport SIGINTs a campaign and verifies the
// graceful drain: distinct exit code, partial CSV, stats-json marking the
// interruption.
func TestInterruptFlushesPartialReport(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and signals a real process")
	}
	dir := t.TempDir()
	bin := buildSimctl(t, dir)
	net := writeFile(t, dir, "chain.net", chainNetlist)
	// Sized to run ~1 s on a 2-vCPU host, so the SIGINT at 300 ms lands
	// mid-run instead of after the campaign finished.
	stim := "i=" + pulseTrain(6000)

	csv := filepath.Join(dir, "part.csv")
	statsJSON := filepath.Join(dir, "part.json")
	cmd := exec.Command(bin, "campaign", "-f", net, "-in", stim, "-horizon", "21000", "-workers", "2",
		"-csv", csv, "-stats-json", statsJSON)
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(300 * time.Millisecond)
	if err := cmd.Process.Signal(syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	err := cmd.Wait()
	ee, ok := err.(*exec.ExitError)
	if !ok {
		t.Skipf("campaign finished before SIGINT landed (err=%v)", err)
	}
	if code := ee.ExitCode(); code != sim.ExitCanceled {
		t.Fatalf("exit code %d, want %d", code, sim.ExitCanceled)
	}
	data, err := os.ReadFile(csv)
	if err != nil {
		t.Fatalf("partial CSV not flushed: %v", err)
	}
	if !bytes.HasPrefix(data, []byte("id,site,model,outcome,abort,attempts")) {
		t.Fatalf("partial CSV lacks header: %q", data[:min(len(data), 60)])
	}
	var report struct {
		Aborted bool   `json:"aborted"`
		Error   string `json:"error"`
	}
	stats, err := os.ReadFile(statsJSON)
	if err != nil {
		t.Fatalf("partial stats-json not flushed: %v", err)
	}
	if err := json.Unmarshal(stats, &report); err != nil {
		t.Fatal(err)
	}
	if !report.Aborted || !strings.Contains(report.Error, "interrupted") {
		t.Fatalf("stats-json does not record the interruption: %+v", report)
	}
}

// TestCampaignFleetMatchesLocal runs one netlist campaign in-process and
// on a two-node fleet: the grid (wrapper faults included, which the fleet
// hands back to local execution) and the CSV must be byte-identical.
func TestCampaignFleetMatchesLocal(t *testing.T) {
	dir := t.TempDir()
	net := writeFile(t, dir, "chain.net", chainNetlist)
	campaign := func(name string, extra ...string) []byte {
		csv := filepath.Join(dir, name+".csv")
		args := append([]string{"campaign", "-f", net, "-in", "i=" + pulseTrain(4), "-horizon", "20", "-csv", csv}, extra...)
		if code, log := runCLI(t, args...); code != 0 {
			t.Fatalf("%s: exit %d\n%s", name, code, log)
		}
		data, err := os.ReadFile(csv)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	local := campaign("local")
	fleet := campaign("fleet", "-peers", startNode(t)+","+startNode(t))
	if !bytes.Equal(local, fleet) {
		t.Fatalf("fleet CSV differs from in-process CSV:\n%s\nvs\n%s", fleet, local)
	}
	for _, want := range []string{"set(", "stuck-at", "pushout", "drop", "dup"} {
		if !bytes.Contains(local, []byte(want)) {
			t.Fatalf("campaign CSV lacks %q rows:\n%s", want, local)
		}
	}
}

// TestCampaignBuiltinPinned pins the built-in Fig. 5 SPF campaign report:
// the CSV bytes for a fixed seed, as the earlier standalone campaign
// binary wrote them.
func TestCampaignBuiltinPinned(t *testing.T) {
	dir := t.TempDir()
	for adv, want := range map[string]string{
		"zero":    "074eec0e2f95b3fbe819166211003e13cf63046e3f3dc028ce229b8ca874e438",
		"uniform": "b063d9ef7f6b7d68b3ea4963e6c71df5ee85b750be0d5471e87ad02642f4ed27",
	} {
		csv := filepath.Join(dir, adv+".csv")
		if code, log := runCLI(t, "campaign", "-adversary", adv, "-seed", "1", "-csv", csv); code != 0 {
			t.Fatalf("%s: exit %d\n%s", adv, code, log)
		}
		data, err := os.ReadFile(csv)
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(data)); got != want {
			t.Errorf("%s: CSV sha256 %s, want %s (%d lines)", adv, got, want, bytes.Count(data, []byte("\n")))
		}
	}
}
