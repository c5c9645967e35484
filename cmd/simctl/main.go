// Command simctl is the one command-line client of the simulator. It
// runs single simulations and fault campaigns in-process, and drives a
// fleet of simd nodes: it shards fault campaigns and Theorem 9
// SET-filtering sweeps into content-addressed simulation jobs, fans them
// out over HTTP with consistent-hash routing, hedged retries and circuit
// breaking, and reassembles the shard results in scenario order — the
// merged CSV/JSONL reports are byte-identical for any node count and any
// failure interleaving.
//
// Usage:
//
//	simctl run      -f design.net -in 'i=0 r@1 f@2.5' -horizon 100 [-vcd out.vcd]
//	simctl spf      -delta0 1.39 -adversary worst -horizon 500
//	simctl campaign -adversary maxup -csv out.csv
//	simctl campaign -peers host:8080 -f design.net -in 'i=0 r@1 f@2.5'
//	simctl sweep    -peers host:8080,host:8081 -csv sweep.csv
//	simctl trace    <trace-id|job-hash> -peers host:8080,host:8081
//	simctl top      -peers host:8080,host:8081 -once
//	simctl query    -lake /var/lib/simd/lake -circuit spf -since 24h
//	simctl load     -addr host:8080 -x 4 -duration 10s -want-sheds -max-lost 0
//
// One mode rule holds for campaign and attack: they run in-process when
// -peers is empty and on the fleet otherwise, with the same grid and the
// same report. On the fleet, scenarios it cannot express (the wrapper
// faults, which need in-process scheduler hooks) fall back to local
// execution transparently.
//
// sweep, campaign and attack accept -trace-out <file>: the run then
// records a distributed trace (campaign root → scenario → dispatch →
// attempt locally, stitched over the cluster hop to each node's job → sim
// spans) whose id is printed at startup. `simctl trace` merges the local
// span file with the spans retained by each node's flight recorder
// (/debug/jobs) into one cross-node timeline; `simctl top` polls the
// fleet's flight recorders for the slowest retained jobs.
//
// load floods one simd node with open-loop traffic and audits its
// overload protection: sheds carry Retry-After and no accepted job is
// lost.
//
// sweep reruns the Theorem 9 experiment remotely: for each adversary the
// Fig. 5 SPF circuit is rendered as a netlist (experiments.SPFNetlist),
// SET strikes spanning the cancel/metastable/lock regimes are injected on
// its input, and the outcomes are classified against a local baseline.
//
// Exit codes: the shared sim.ExitCode table. 0 when the run completed
// (aborted campaign scenarios are contained rows, not process failures),
// 1 on usage, I/O or cluster errors, 5 when SIGINT/SIGTERM interrupted
// the run — partial artifacts are flushed. run and spf exit 2, 3 or 4
// when their simulation aborted on the event budget, the -deadline or a
// recovered panic; attack exits 2 when it found no breaking attack, load
// exits 2 when one of its assertions failed.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"involution/internal/chaos"
	"involution/internal/cluster"
	"involution/internal/experiments"
	"involution/internal/fault"
	"involution/internal/obs"
	"involution/internal/obs/tracing"
	"involution/internal/sim"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		usage(stderr)
		return sim.ExitUsage
	}
	switch args[0] {
	case "run":
		return runSim(args[1:], stdout, stderr)
	case "spf":
		return runSPF(args[1:], stdout, stderr)
	case "sweep":
		return runSweep(args[1:], stdout, stderr)
	case "campaign":
		return runCampaign(args[1:], stdout, stderr)
	case "attack":
		return runAttack(args[1:], stdout, stderr)
	case "trace":
		return runTrace(args[1:], stdout, stderr)
	case "top":
		return runTop(args[1:], stdout, stderr)
	case "chaos-soak":
		return runChaosSoak(args[1:], stdout, stderr)
	case "query":
		return runQuery(args[1:], stdout, stderr)
	case "load":
		return runLoad(args[1:], stdout, stderr)
	case "-h", "-help", "--help", "help":
		usage(stdout)
		return 0
	default:
		fmt.Fprintf(stderr, "simctl: unknown command %q\n", args[0])
		usage(stderr)
		return sim.ExitUsage
	}
}

func usage(w io.Writer) {
	fmt.Fprint(w, `usage:
  simctl run      -f <netlist> [-in 'i=0 r@1 f@2.5'] [flags]   simulate a netlist, print or dump its traces
  simctl spf      [-delta0 d] [-adversary worst] [flags]   Fig. 5 SPF run with the Section IV analysis
  simctl campaign [-peers <addr,...>] [-f <netlist>] [flags]   fault-injection campaign (default: built-in Fig. 5 SPF)
  simctl sweep    -peers <addr,...> [flags]   Theorem 9 SET sweep on the fleet
  simctl attack   [-peers <addr,...>] [-objective defeat-spf] [-searcher anneal] [flags]   search for the weakest breaking perturbation
  simctl trace    <trace-id|job-hash> -peers <addr,...> [-spans file]   render one trace's cross-node timeline
  simctl top      -peers <addr,...> [-n 10] [-once]   slowest retained jobs across the fleet
  simctl chaos-soak -peers <addr,...> [-schedules 2] [-dir out]   byte-identity soak under seeded chaos + coordinator kill/resume
  simctl query    -lake <dir> [-key hex] [-circuit name] [-class name] [-since t] [-until t] [-json|-payload]   search/export a result lake, no daemon needed
  simctl load     -addr <addr> (-rate r | -x k) [-want-sheds] [-max-lost 0] [-json]   open-loop overload flood of one simd node

run 'simctl <command> -h' for the command's flags
`)
}

// clusterFlags holds the fleet knobs shared by sweep, campaign and attack.
type clusterFlags struct {
	peers        string
	timeout      time.Duration
	hedge        time.Duration
	retries      int
	nodeInFlight int
	chaos        string
	checkpoint   string
	resume       bool
	apiKey       string
}

func (cf *clusterFlags) register(fs *flag.FlagSet) {
	fs.StringVar(&cf.peers, "peers", "", "comma-separated simd node addresses (campaign, attack: empty runs in-process)")
	fs.DurationVar(&cf.timeout, "timeout", 2*time.Minute, "per-request timeout")
	fs.DurationVar(&cf.hedge, "hedge", 0, "straggler delay before hedging a shard onto a second node (0: no hedging)")
	fs.IntVar(&cf.retries, "retries", 0, "per-shard reschedules across nodes, two tries per node visited (0: visit every node once)")
	fs.IntVar(&cf.nodeInFlight, "node-inflight", 4, "concurrent requests per node")
	fs.StringVar(&cf.chaos, "chaos", "", "inject faults from this chaos schedule (JSON) into every exchange")
	fs.StringVar(&cf.checkpoint, "checkpoint", "", "crash-safe result journal: completed work is durable before it is surfaced")
	fs.BoolVar(&cf.resume, "resume", false, "replay completed work from the -checkpoint journal instead of truncating it")
	fs.StringVar(&cf.apiKey, "api-key", "", "tenant API key sent with every submit (fleet admission control; empty: anonymous)")
}

func (cf *clusterFlags) coordinator(reg *obs.Registry, tracer *tracing.Tracer) (*cluster.Coordinator, error) {
	peers := splitPeers(cf.peers)
	if len(peers) == 0 {
		return nil, fmt.Errorf("-peers is required (comma-separated simd addresses)")
	}
	if cf.resume && cf.checkpoint == "" {
		return nil, fmt.Errorf("-resume needs -checkpoint")
	}
	var transport http.RoundTripper
	if cf.chaos != "" {
		sched, err := chaos.LoadSchedule(cf.chaos)
		if err != nil {
			return nil, err
		}
		transport = chaos.NewTransport(sched, cluster.DefaultTransport(2*cf.nodeInFlight)).WithRegistry(reg)
	}
	return cluster.NewCoordinator(cluster.Options{
		Peers:        peers,
		Timeout:      cf.timeout,
		Hedge:        cf.hedge,
		Retries:      cf.retries,
		NodeInFlight: cf.nodeInFlight,
		Registry:     reg,
		Tracer:       tracer,
		Transport:    transport,
		Checkpoint:   cf.checkpoint,
		Resume:       cf.resume,
		APIKey:       cf.apiKey,
	})
}

// sweepRow is one scenario of the combined multi-adversary sweep report.
type sweepRow struct {
	Adversary string `json:"adversary"`
	fault.Row
}

func runSweep(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("simctl sweep", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cf clusterFlags
	cf.register(fs)
	adversaries := fs.String("adversaries", "zero,worst,maxup,uniform", "comma-separated η adversaries to sweep")
	horizon := fs.Float64("horizon", 1200, "simulation horizon per scenario")
	seed := fs.Int64("seed", 7, "sweep seed (scenario rngs, adversary rngs and reports derive from it)")
	workers := fs.Int("workers", 0, "concurrent shards in flight (0: GOMAXPROCS; reports are identical for any value)")
	maxRetries := fs.Int("max-retries", 2, "re-runs per scenario aborting on budget/deadline, under escalating limits")
	csvPath := fs.String("csv", "", `write the combined report as CSV to this file ("-" = stdout)`)
	jsonlPath := fs.String("jsonl", "", `write the combined report as JSONL to this file ("-" = stdout)`)
	traceOut := fs.String("trace-out", "", "record the sweep's spans as JSONL to this file and print the trace id")
	if err := fs.Parse(args); err != nil {
		return sim.ExitUsage
	}

	ctx, stopSignals := signalContext()
	defer stopSignals()

	to, err := openTraceOutput(*traceOut, "sweep", stdout)
	if err != nil {
		return fatal(stderr, err)
	}
	defer to.close(stderr)
	ctx = to.context(ctx)

	reg := obs.NewRegistry()
	coord, err := cf.coordinator(reg, to.Tracer())
	if err != nil {
		return fatal(stderr, err)
	}
	defer coord.Close()

	var results []struct {
		adversary string
		report    *fault.Report
	}
	interrupted := false
	for _, adv := range strings.Split(*adversaries, ",") {
		adv = strings.TrimSpace(adv)
		if adv == "" {
			continue
		}
		doc, sys, err := experiments.SPFNetlist(adv, *seed)
		if err != nil {
			return fatal(stderr, err)
		}
		c, err := doc.Build()
		if err != nil {
			return fatal(stderr, err)
		}
		camp, grid := experiments.SETGrid(c, sys.Analysis, *horizon, *seed)
		eng := &fault.Engine{Campaign: camp, Opts: fault.Options{
			Workers:    *workers,
			MaxRetries: *maxRetries,
			Registry:   reg,
			Executor:   &cluster.CampaignExecutor{Coord: coord, Doc: doc, Inputs: camp.Inputs},
			Tracer:     to.Tracer(),
		}}
		rep, err := eng.Run(ctx, grid)
		if errors.Is(err, fault.ErrInterrupted) {
			fmt.Fprintf(stderr, "simctl: %v — flushing partial report\n", err)
			interrupted = true
		} else if err != nil {
			return fatal(stderr, err)
		}
		a := sys.Analysis
		fmt.Fprintf(stdout, "adversary %s: cancel ≤ %.4f < metastable (Δ̃₀=%.4f) < %.4f ≤ lock\n",
			adv, a.CancelBound, a.Delta0Tilde, a.LockBound)
		fmt.Fprint(stdout, rep.Format())
		results = append(results, struct {
			adversary string
			report    *fault.Report
		}{adv, rep})
		if interrupted {
			break
		}
	}

	writeCSV := func(w io.Writer) error {
		if _, err := fmt.Fprintln(w, "adversary,id,site,model,outcome,abort,attempts,scheduled,delivered,canceled"); err != nil {
			return err
		}
		for _, r := range results {
			for _, row := range r.report.Rows {
				if _, err := fmt.Fprintf(w, "%s,%d,%s,%s,%s,%s,%d,%d,%d,%d\n",
					r.adversary, row.ID, row.Site, row.Model, row.Outcome, row.Abort,
					row.Attempts, row.Scheduled, row.Delivered, row.Canceled); err != nil {
					return err
				}
			}
		}
		return nil
	}
	writeJSONL := func(w io.Writer) error {
		enc := json.NewEncoder(w)
		for _, r := range results {
			for _, row := range r.report.Rows {
				if err := enc.Encode(sweepRow{Adversary: r.adversary, Row: row}); err != nil {
					return err
				}
			}
		}
		return nil
	}
	mergeSp := to.child("merge")
	if err := writeReport(stdout, *csvPath, writeCSV); err != nil {
		return fatal(stderr, err)
	}
	if err := writeReport(stdout, *jsonlPath, writeJSONL); err != nil {
		return fatal(stderr, err)
	}
	mergeSp.End()
	clusterSummary(stdout, reg)
	if interrupted {
		return sim.ExitCanceled
	}
	return 0
}

// clusterSummary prints the fleet-side counters of the run.
func clusterSummary(w io.Writer, reg *obs.Registry) {
	vals := map[string]float64{}
	for _, s := range reg.Snapshot() {
		vals[s.Name] = s.Value
	}
	fmt.Fprintf(w, "cluster: %.0f dispatched, %.0f hedges (%.0f won / %.0f lost / %.0f canceled), %.0f reschedules, %.0f attempt failures, %.0f remote cache hits (%.0f lake dedups), %.0f integrity failures, %.0f checkpoint replays\n",
		vals["cluster_dispatch_total"], vals["cluster_hedge_total"],
		vals["cluster_hedges_won_total"], vals["cluster_hedges_lost_total"], vals["cluster_hedges_canceled_total"],
		vals["cluster_reschedule_total"], vals["cluster_attempt_failure_total"], vals["cluster_remote_cache_hit_total"],
		vals["cluster_lake_dedup_total"],
		vals["cluster_integrity_failures_total"], vals["cluster_checkpoint_replayed_total"])
}
