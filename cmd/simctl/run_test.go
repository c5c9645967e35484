package main

import (
	"bufio"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"involution/internal/sim"
)

// ringNetlist oscillates forever: an inverter fed back onto itself through
// an exp channel. Useful for driving the run into its budget or deadline.
const ringNetlist = `
circuit ring
output o
gate n NOT init=1
channel n n 0 exp tau=1 tp=0.5 vth=0.6
channel n o 0 zero
`

// pulseNetlist settles quickly: a buffered pulse path.
const pulseNetlist = `
circuit pulse
input i
output o
gate g BUF init=0
channel i g 0 pure d=1
channel g o 0 zero
`

// writeFile writes data to name under dir and returns the path.
func writeFile(t *testing.T, dir, name, data string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestExitCodes builds the real binary and checks the documented exit code
// of run and spf for each termination cause end to end.
func TestExitCodes(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the simctl binary")
	}
	dir := t.TempDir()
	bin := buildSimctl(t, dir)
	ring := writeFile(t, dir, "ring.net", ringNetlist)
	pulse := writeFile(t, dir, "pulse.net", pulseNetlist)

	cases := []struct {
		name string
		args []string
		want int
	}{
		{"success", []string{"run", "-f", pulse, "-in", "i=0 r@1 f@3", "-horizon", "10"}, sim.ExitOK},
		{"usage", []string{"run"}, sim.ExitUsage},
		{"budget", []string{"run", "-f", ring, "-horizon", "1e12", "-max-events", "100"}, sim.ExitAbort},
		{"deadline", []string{"run", "-f", ring, "-horizon", "1e12", "-deadline", "50ms"}, sim.ExitDeadline},
		{"spf-success", []string{"spf", "-horizon", "50"}, sim.ExitOK},
		{"spf-usage", []string{"spf", "-adversary", "bogus"}, sim.ExitUsage},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			out, err := exec.Command(bin, c.args...).CombinedOutput()
			got := 0
			if err != nil {
				ee, ok := err.(*exec.ExitError)
				if !ok {
					t.Fatalf("run: %v\n%s", err, out)
				}
				got = ee.ExitCode()
			}
			if got != c.want {
				t.Fatalf("exit code %d, want %d\n%s", got, c.want, out)
			}
		})
	}
}

// TestPprofKeepaliveExitsOnSIGTERM checks that the -pprof keepalive after
// a finished run gives the signals back: SIGTERM must end the process.
func TestPprofKeepaliveExitsOnSIGTERM(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and signals a real process")
	}
	dir := t.TempDir()
	bin := buildSimctl(t, dir)
	pulse := writeFile(t, dir, "pulse.net", pulseNetlist)

	cmd := exec.Command(bin, "run", "-pprof", "127.0.0.1:0", "-f", pulse, "-in", "i=0 r@1 f@3", "-horizon", "10")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	exited := make(chan error, 1)
	parked := make(chan struct{})
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if strings.Contains(sc.Text(), "still on") {
				close(parked)
				break
			}
		}
		for sc.Scan() {
		}
		exited <- cmd.Wait()
	}()
	select {
	case <-parked:
	case err := <-exited:
		t.Fatalf("exited before the keepalive: %v", err)
	case <-time.After(30 * time.Second):
		cmd.Process.Kill()
		t.Fatal("run never reached the keepalive")
	}
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case <-exited:
	case <-time.After(5 * time.Second):
		cmd.Process.Kill()
		t.Fatal("keepalive ignored SIGTERM")
	}
}
