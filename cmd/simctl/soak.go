package main

// simctl chaos-soak: the byte-identity soak harness. It runs a reference
// sweep clean, re-runs it under N seeded chaos schedules (every generated
// schedule injects corruption, so integrity verification is always on
// trial), then runs a coordinator kill-and-resume leg: a checkpointed
// sweep under chaos is SIGKILLed once its journal holds durable rows and
// re-run with -resume. The soak fails unless every leg's CSV and JSONL
// output is byte-identical to the clean baseline, chaos legs report
// nonzero integrity failures (the corruptions were caught, not merged),
// and the resume leg replays journaled shards.
//
// Each leg is a real `simctl sweep` subprocess — the same binary
// re-executed — so the kill leg dies the way a production coordinator
// dies: SIGKILL, no deferred flushes, half-written journal tail.

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"time"

	"involution/internal/chaos"
	"involution/internal/cluster"
	"involution/internal/journal"
	"involution/internal/sim"
)

func runChaosSoak(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("simctl chaos-soak", flag.ContinueOnError)
	fs.SetOutput(stderr)
	peers := fs.String("peers", "", "comma-separated simd node addresses (required)")
	schedules := fs.Int("schedules", 2, "seeded chaos schedules to soak under")
	seed := fs.Int64("seed", 7, "soak seed (chaos schedules and the sweep derive from it)")
	adversaries := fs.String("adversaries", "zero,worst", "adversaries of the reference sweep")
	horizon := fs.Float64("horizon", 200, "simulation horizon of the reference sweep")
	retries := fs.Int("retries", 10, "per-shard reschedule allowance passed to every leg (chaos must not exhaust the ladder)")
	timeout := fs.Duration("timeout", 30*time.Second, "per-request timeout passed to every leg")
	dir := fs.String("dir", "", "work directory for schedules, journals and reports (default: a temp dir, removed on success)")
	self := fs.String("self", "", "simctl binary to re-exec for each leg (default: this binary)")
	noKill := fs.Bool("no-kill", false, "skip the coordinator kill-and-resume leg")
	if err := fs.Parse(args); err != nil {
		return sim.ExitUsage
	}
	hosts, err := peerHosts(*peers)
	if err != nil {
		return fatal(stderr, err)
	}
	if len(hosts) == 0 {
		return fatal(stderr, fmt.Errorf("-peers is required (comma-separated simd addresses)"))
	}
	bin := *self
	if bin == "" {
		exe, err := os.Executable()
		if err != nil {
			return fatal(stderr, fmt.Errorf("cannot locate own binary (pass -self): %w", err))
		}
		bin = exe
	}
	work := *dir
	cleanup := func() {}
	if work == "" {
		tmp, err := os.MkdirTemp("", "chaos-soak-")
		if err != nil {
			return fatal(stderr, err)
		}
		work = tmp
		cleanup = func() { os.RemoveAll(tmp) }
	} else if err := os.MkdirAll(work, 0o755); err != nil {
		return fatal(stderr, err)
	}

	ctx, stopSignals := signalContext()
	defer stopSignals()

	s := &soak{
		ctx: ctx, bin: bin, dir: work, stdout: stdout,
		peers: hosts,
		common: []string{
			"-peers", *peers,
			"-adversaries", *adversaries,
			"-horizon", fmt.Sprint(*horizon),
			"-seed", fmt.Sprint(*seed),
			"-retries", fmt.Sprint(*retries),
			"-timeout", timeout.String(),
		},
	}

	if err := s.run(*schedules, *seed, !*noKill); err != nil {
		fmt.Fprintf(stderr, "simctl chaos-soak: FAIL: %v\n(artifacts kept in %s)\n", err, work)
		if ctx.Err() != nil {
			return sim.ExitCanceled
		}
		return 1
	}
	fmt.Fprintf(stdout, "chaos-soak: PASS — %d chaos schedules + kill/resume, all outputs byte-identical to clean, %d corruptions caught\n",
		*schedules, s.integrity)
	cleanup()
	return 0
}

// soak carries one soak run's state.
type soak struct {
	ctx       context.Context
	bin       string
	dir       string
	stdout    io.Writer
	common    []string // sweep flags shared by every leg
	peers     []string // fleet hosts (bounds generated schedules' blast radius)
	clean     []byte   // baseline CSV
	cleanJSON []byte   // baseline JSONL
	integrity int      // corruptions caught across chaos legs
}

func (s *soak) run(schedules int, seed int64, kill bool) error {
	// Leg 0: the clean baseline every other leg must reproduce exactly.
	out, err := s.sweep("clean", nil)
	if err != nil {
		return fmt.Errorf("clean baseline: %w", err)
	}
	s.clean, s.cleanJSON = out.csv, out.jsonl
	fmt.Fprintf(s.stdout, "chaos-soak: clean baseline: %d bytes CSV\n", len(s.clean))

	// Chaos legs: same sweep under each seeded schedule.
	for k := 0; k < schedules; k++ {
		name := fmt.Sprintf("chaos-%d", k)
		schedPath, err := s.writeSchedule(name, seed, k)
		if err != nil {
			return err
		}
		out, err := s.sweep(name, []string{"-chaos", schedPath})
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		if err := s.compare(name, out); err != nil {
			return err
		}
		if out.integrity == 0 {
			return fmt.Errorf("%s: schedule injects corruption but zero integrity failures were counted — corruptions are not being caught", name)
		}
		s.integrity += out.integrity
		fmt.Fprintf(s.stdout, "chaos-soak: %s: byte-identical, %d corruptions caught\n", name, out.integrity)
	}

	if !kill {
		return nil
	}
	return s.killResume(seed)
}

// killResume SIGKILLs a checkpointing sweep once its journal holds durable
// rows, then re-runs it with -resume and demands byte-identity plus
// replayed shards.
func (s *soak) killResume(seed int64) error {
	schedPath, err := s.writeSchedule("kill", seed, 0)
	if err != nil {
		return err
	}
	ckpt := filepath.Join(s.dir, "kill.ckpt")

	victim := exec.CommandContext(s.ctx, s.bin, s.legArgs("kill-victim",
		"-chaos", schedPath, "-checkpoint", ckpt)...)
	victim.Stdout, victim.Stderr = io.Discard, io.Discard
	if err := victim.Start(); err != nil {
		return fmt.Errorf("kill leg: starting victim: %w", err)
	}
	exited := make(chan error, 1)
	go func() { exited <- victim.Wait() }()

	// Wait for durable rows, then kill mid-run. A victim fast enough to
	// finish first is fine: resume then replays everything.
	rows := 0
	killed := false
poll:
	for deadline := time.Now().Add(2 * time.Minute); time.Now().Before(deadline); {
		select {
		case <-exited:
			break poll
		case <-s.ctx.Done():
			victim.Process.Kill()
			return s.ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
		if rows = journal.DurableRows(ckpt); rows >= 1 {
			victim.Process.Kill()
			killed = true
			<-exited
			break poll
		}
	}
	fmt.Fprintf(s.stdout, "chaos-soak: kill-resume: victim %s with %d durable rows\n",
		map[bool]string{true: "SIGKILLed", false: "finished before the kill"}[killed], journal.DurableRows(ckpt))

	out, err := s.sweep("kill-resume", []string{"-chaos", schedPath, "-checkpoint", ckpt, "-resume"})
	if err != nil {
		return fmt.Errorf("kill-resume: %w", err)
	}
	if err := s.compare("kill-resume", out); err != nil {
		return err
	}
	if out.replays == 0 {
		return fmt.Errorf("kill-resume: resumed run replayed zero shards from the journal")
	}
	s.integrity += out.integrity
	fmt.Fprintf(s.stdout, "chaos-soak: kill-resume: byte-identical, %d shards replayed from the journal\n", out.replays)
	return nil
}

// peerHosts returns the host:port the coordinator dials for each address
// in a -peers list: the name chaos rules match against (req.URL.Host), so
// a schedule's victims are hosts the transport actually sees.
func peerHosts(peers string) ([]string, error) {
	var hosts []string
	for _, p := range splitPeers(peers) {
		u, err := url.Parse(cluster.BaseURL(p))
		if err != nil {
			return nil, fmt.Errorf("-peers: %w", err)
		}
		hosts = append(hosts, u.Host)
	}
	return hosts, nil
}

func (s *soak) writeSchedule(name string, seed int64, k int) (string, error) {
	sched := chaos.Generate(seed, k, s.peers)
	data, err := json.MarshalIndent(sched, "", "  ")
	if err != nil {
		return "", err
	}
	path := filepath.Join(s.dir, name+".schedule.json")
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return "", err
	}
	return path, nil
}

// legResult is one sweep leg's artifacts.
type legResult struct {
	csv, jsonl []byte
	integrity  int // integrity failures the leg's coordinator counted
	replays    int // shards replayed from the leg's checkpoint journal
}

func (s *soak) legArgs(name string, extra ...string) []string {
	args := []string{"sweep"}
	args = append(args, s.common...)
	args = append(args,
		"-csv", filepath.Join(s.dir, name+".csv"),
		"-jsonl", filepath.Join(s.dir, name+".jsonl"))
	return append(args, extra...)
}

var summaryRe = regexp.MustCompile(`(\d+) integrity failures, (\d+) checkpoint replays`)

// sweep runs one leg as a subprocess and collects its artifacts.
func (s *soak) sweep(name string, extra []string) (legResult, error) {
	cmd := exec.CommandContext(s.ctx, s.bin, s.legArgs(name, extra...)...)
	var buf bytes.Buffer
	cmd.Stdout, cmd.Stderr = &buf, &buf
	if err := cmd.Run(); err != nil {
		tail := buf.Bytes()
		if len(tail) > 2000 {
			tail = tail[len(tail)-2000:]
		}
		return legResult{}, fmt.Errorf("sweep leg failed: %w\n%s", err, tail)
	}
	var res legResult
	var err error
	if res.csv, err = os.ReadFile(filepath.Join(s.dir, name+".csv")); err != nil {
		return legResult{}, err
	}
	if res.jsonl, err = os.ReadFile(filepath.Join(s.dir, name+".jsonl")); err != nil {
		return legResult{}, err
	}
	if m := summaryRe.FindSubmatch(buf.Bytes()); m != nil {
		res.integrity, _ = strconv.Atoi(string(m[1]))
		res.replays, _ = strconv.Atoi(string(m[2]))
	}
	return res, nil
}

func (s *soak) compare(name string, out legResult) error {
	if !bytes.Equal(out.csv, s.clean) {
		return fmt.Errorf("%s: CSV differs from the clean baseline (%d vs %d bytes) — see %s", name, len(out.csv), len(s.clean), s.dir)
	}
	if !bytes.Equal(out.jsonl, s.cleanJSON) {
		return fmt.Errorf("%s: JSONL differs from the clean baseline — see %s", name, s.dir)
	}
	return nil
}
