// Command stackbench is the repository's benchmark: one seeded command
// that drives the shipped public APIs through three workloads, each of
// which loads a different layer of the stack, checks the outputs, and
// reports every metric by name with its unit.
//
//	go run . --workload kernel|sweep|attack --seed 1 --seconds 10 --trace 0|1
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end set (setup_s, jobs_per_s,
// job_p50_ms, job_p99_ms, events_per_s, max_rss_mb). With --trace 1 a
// second, traced window follows the untraced one and the metrics are the
// per-layer set (<module>.<metric>), plus the tracing overhead. The lines
// before it are the human-readable report: environment stamp, output
// digests, ratio bases, sample counts and the layer split. A failed job or
// a wrong output makes the run exit 1. NOTES.md explains the workloads
// and the metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
)

// commit is stamped by run.sh (-ldflags "-X main.commit=…").
var commit = "unknown"

const (
	// defaultSeed is the seed the pinned digests belong to.
	defaultSeed = 1
	// inFlight is the client's concurrency: at most nproc (2 on the
	// reference host) jobs in flight, over as many connections. An attack
	// generation fans out this wide.
	inFlight = 2
	// sweepInFlight is the sweep's fault.Engine width. With one job in
	// flight the client, the nodes and the GC share the second core instead
	// of queueing for both, so the latencies measure the stack, not the
	// scheduler.
	sweepInFlight = 1
	// setupProbes is how many times each run sets its workload up from
	// scratch to time it; setup_s is their median.
	setupProbes = 41
)

// pinned holds each workload's output digest for defaultSeed. A run with
// that seed whose digest differs has produced wrong outputs.
var pinned = map[string]string{
	"kernel": "6d95bdbf5b98623f3d7434d3b56a7e95c4ec63a21567b8475954f7eb7cfea83c",
	"sweep":  "aeae1875cd24700ab5c3f70e0358bf584377abeedb8a1dfaccffa6ba05d45585",
	"attack": "6a5a057da71db2c492de9abe252edeb9153455fb739b9b0fda4e873b6ee6610b",
}

// config is one invocation's parameters.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// dir holds the run's lakes and journals; it is removed at exit.
	dir string
	// spans is where the traced run writes its span records.
	spans string
}

func main() {
	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "stackbench:", err)
		os.Exit(1)
	}
	os.Exit(run(root, os.Args[1:], os.Stdout, os.Stderr))
}

// run executes one invocation; everything it writes goes under
// root/.bench_build.
func run(root string, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("stackbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "kernel | sweep | attack")
	seed := fs.Int64("seed", defaultSeed, "input seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 10, "length of the timed window")
	trace := fs.Int("trace", 0, "1: follow the untraced window with a traced one and report per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runWorkload, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "stackbench: want --workload kernel|sweep|attack, --seconds > 0, --trace 0|1")
		return 2
	}
	build := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(build, 0o755); err != nil {
		fmt.Fprintln(stderr, "stackbench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(build, "run-")
	if err != nil {
		fmt.Fprintln(stderr, "stackbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	cfg := config{
		workload: *workload,
		seed:     *seed,
		seconds:  *seconds,
		trace:    *trace == 1,
		dir:      dir,
		spans:    filepath.Join(build, "spans-"+*workload+".jsonl"),
	}
	stampEnv(stdout, cfg)
	res, err := runWorkload(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "stackbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	res.finish(cfg)
	if err := res.print(stdout, cfg); err != nil {
		fmt.Fprintln(stderr, "stackbench:", err)
		return 1
	}
	if !res.correct() {
		problems := res.problems
		if len(problems) > 5 {
			problems = append(problems[:5], "…")
		}
		fmt.Fprintf(stderr, "stackbench: %s: %d of %d operations failed: %s\n",
			cfg.workload, res.failed, res.attempted, strings.Join(problems, "; "))
		return 1
	}
	return 0
}

var workloads = map[string]func(config) (*result, error){
	"kernel": runKernel,
	"sweep":  runSweep,
	"attack": runAttack,
}

// stampEnv prints the environment the numbers were measured in.
func stampEnv(w io.Writer, cfg config) {
	env := map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"cpu":        cpuModel(),
		"commit":     commit,
		"workload":   cfg.workload,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds,
		"trace":      cfg.trace,
	}
	raw, _ := json.Marshal(env) // a map of plain values always encodes
	fmt.Fprintf(w, "env %s\n", raw)
}

func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// maxRSSMB is the process's peak resident set size.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}
