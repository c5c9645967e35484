package main

// simctl campaign: fault-injection campaigns. The command sweeps a grid of
// (site × fault model) scenarios over a circuit, simulates each against a
// fault-free baseline, and classifies the outcomes
// (masked/filtered/propagated/latched/aborted).
//
// Without -f the built-in Fig. 5 SPF (experiments.SPFNetlist) is used
// under -adversary, and the SET widths span its cancel/metastable/lock
// regimes; with -f the widths are fractions of the horizon. Without
// -peers every scenario runs in-process on -workers simulators; with
// -peers the overlay faults (SETs, stuck-ats) run on the simd fleet and
// the wrapper faults (pushout/drop/dup) still run locally. Either way the
// grid and the report are the same and byte-identical for a fixed -seed.
//
// With -checkpoint every finished scenario is journaled as it completes,
// and -resume replays the journal and runs only the remainder; the final
// report is byte-identical to an uninterrupted run. Every scenario runs
// under the campaign's event budget, wall-clock deadline and panic
// isolation: a pathological fault yields an "aborted" row, not a crash.

import (
	"errors"
	"flag"
	"fmt"
	"io"

	"involution/internal/circuit"
	"involution/internal/cluster"
	"involution/internal/core"
	"involution/internal/experiments"
	"involution/internal/fault"
	"involution/internal/netlist"
	"involution/internal/obs"
	"involution/internal/signal"
	"involution/internal/sim"
	"involution/internal/trace"
)

func runCampaign(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("simctl campaign", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cf clusterFlags
	cf.register(fs)
	file := fs.String("f", "", "netlist file (default: built-in Fig. 5 SPF circuit)")
	adv := fs.String("adversary", "zero", "η adversary for the built-in circuit: zero|worst|maxup|uniform")
	horizon := fs.Float64("horizon", 600, "simulation horizon per scenario")
	seed := fs.Int64("seed", 1, "campaign seed (scenario rngs and reports derive from it)")
	maxEvents := fs.Int("max-events", 0, "event budget per scenario run (0: simulator default)")
	deadline := fs.Duration("deadline", 0, "wall-clock deadline per scenario run (0: none)")
	workers := fs.Int("workers", 0, "concurrent scenarios in flight (0: GOMAXPROCS; reports are identical for any value)")
	maxRetries := fs.Int("max-retries", 2, "re-runs per scenario aborting on budget/deadline, under escalating limits")
	csvPath := fs.String("csv", "", `write the per-scenario report as CSV to this file ("-" = stdout)`)
	jsonlPath := fs.String("jsonl", "", `write the per-scenario report as JSONL to this file ("-" = stdout)`)
	statsJSON := fs.String("stats-json", "", `write the aggregate stats report to this file ("-" = stdout)`)
	pprofAddr := fs.String("pprof", "", "serve net/http/pprof, /metrics and /debug/vars on this address and stay alive after the run")
	traceOut := fs.String("trace-out", "", "record the campaign's spans as JSONL to this file and print the trace id")
	in := stimuli{}
	fs.Var(in, "in", "input stimulus, e.g. 'i=0 r@1 f@2.5' (repeatable; default: constant zero)")
	if err := fs.Parse(args); err != nil {
		return sim.ExitUsage
	}
	// -checkpoint/-resume journal the engine's rows in both modes; the
	// coordinator's shard journal stays off.
	checkpoint, resume := cf.checkpoint, cf.resume
	cf.checkpoint, cf.resume = "", false
	if resume && checkpoint == "" {
		return fatal(stderr, fmt.Errorf("-resume needs -checkpoint"))
	}

	// SIGINT/SIGTERM drains the campaign: in-flight scenarios stop at their
	// next event, finished rows are kept (and journaled), the partial
	// report artifacts are flushed, and the exit code is sim.ExitCanceled.
	ctx, stopSignals := signalContext()
	defer stopSignals()

	reg := obs.NewRegistry()
	debugAddr, err := serveDebug(*pprofAddr, reg, stdout, stderr)
	if err != nil {
		return fatal(stderr, err)
	}

	var (
		doc *netlist.Document
		c   *circuit.Circuit
		a   *core.Analysis
	)
	if *file != "" {
		doc, c, err = readNetlist(*file)
	} else {
		doc, c, a, err = builtinSPF(*adv, *seed, stdout)
	}
	if err != nil {
		return fatal(stderr, err)
	}
	models := defaultModels(setWidths(a, *horizon), *horizon)
	st := c.Stats()
	fmt.Fprintf(stdout, "circuit %s: %d inputs, %d outputs, %d gates, %d channels (%d zero-delay)\n",
		c.Name, st.Inputs, st.Outputs, st.Gates, st.Channels, st.ZeroDelay)
	inputs, err := in.bind(c)
	if err != nil {
		return fatal(stderr, err)
	}

	camp := &fault.Campaign{
		Circuit:   c,
		Inputs:    inputs,
		Horizon:   *horizon,
		MaxEvents: *maxEvents,
		Deadline:  *deadline,
		Seed:      *seed,
	}
	sites := fault.Sites(c)
	scenarios := fault.Grid(sites, models)
	fmt.Fprintf(stdout, "campaign grid: %d scenarios (%d sites × %d models, inapplicable pairs skipped), seed %d\n",
		len(scenarios), len(sites), len(models), *seed)

	to, err := openTraceOutput(*traceOut, "campaign", stdout)
	if err != nil {
		return fatal(stderr, err)
	}
	defer to.close(stderr)
	ctx = to.context(ctx)

	opts := fault.Options{
		Workers:    *workers,
		MaxRetries: *maxRetries,
		Checkpoint: checkpoint,
		Resume:     resume,
		Registry:   reg,
		Tracer:     to.Tracer(),
	}
	remote := cf.peers != ""
	if remote {
		coord, err := cf.coordinator(reg, to.Tracer())
		if err != nil {
			return fatal(stderr, err)
		}
		defer coord.Close()
		opts.Executor = &cluster.CampaignExecutor{Coord: coord, Doc: doc, Inputs: inputs}
	}

	rep, err := (&fault.Engine{Campaign: camp, Opts: opts}).Run(ctx, scenarios)
	interrupted := errors.Is(err, fault.ErrInterrupted)
	if err != nil && !interrupted {
		return fatal(stderr, err)
	}
	if interrupted {
		fmt.Fprintf(stderr, "simctl: %v — flushing partial report (%d/%d scenarios)\n",
			err, len(rep.Rows), len(scenarios))
	}
	fmt.Fprint(stdout, rep.Format())
	mergeSp := to.child("merge")
	if err := writeReport(stdout, *csvPath, rep.WriteCSV); err != nil {
		return fatal(stderr, err)
	}
	if err := writeReport(stdout, *jsonlPath, rep.WriteJSONL); err != nil {
		return fatal(stderr, err)
	}
	mergeSp.End()

	// Aggregate event totals across the campaign (per-scenario figures are
	// in the CSV/JSONL rows).
	var agg sim.RunStats
	for _, row := range rep.Rows {
		agg.Scheduled += row.Scheduled
		agg.Delivered += row.Delivered
		agg.Canceled += row.Canceled
	}
	report := trace.StatsReport{Circuit: c.Name, Horizon: *horizon, Events: agg.Delivered, Stats: agg}
	if n := rep.Counts[fault.Aborted.String()]; n > 0 {
		report.Aborted = true
		report.Error = fmt.Sprintf("%d of %d scenarios aborted", n, len(rep.Rows))
	}
	if interrupted {
		report.Aborted = true
		report.Error = fmt.Sprintf("campaign interrupted after %d/%d scenarios", len(rep.Rows), len(scenarios))
	}
	if err := writeStats(stdout, *statsJSON, report); err != nil {
		return fatal(stderr, err)
	}
	if remote {
		clusterSummary(stdout, reg)
	}
	if interrupted {
		return sim.ExitCanceled
	}
	rep.Register(reg)
	trace.RegisterRunStats(reg, agg)
	keepalive(stdout, debugAddr, stopSignals)
	return 0
}

// builtinSPF returns the Fig. 5 SPF netlist under adversary adv, its
// circuit and its loop analysis, announcing the regime bounds the SET
// widths span.
func builtinSPF(adv string, seed int64, stdout io.Writer) (*netlist.Document, *circuit.Circuit, *core.Analysis, error) {
	doc, sys, err := experiments.SPFNetlist(adv, seed)
	if err != nil {
		return nil, nil, nil, err
	}
	c, err := doc.Build()
	if err != nil {
		return nil, nil, nil, err
	}
	a := sys.Analysis
	fmt.Fprintf(stdout, "built-in Fig. 5 SPF, adversary %s: cancel ≤ %.4f < metastable (Δ̃₀=%.4f) < %.4f ≤ lock\n",
		adv, a.CancelBound, a.Delta0Tilde, a.LockBound)
	return doc, c, &a, nil
}

// setWidths picks SET pulse widths: spanning the cancel/metastable/lock
// regimes when a loop analysis is available, fractions of the horizon
// otherwise.
func setWidths(a *core.Analysis, horizon float64) []float64 {
	if a != nil {
		return []float64{
			0.3 * a.CancelBound,
			0.9 * a.CancelBound,
			0.5 * (a.CancelBound + a.Delta0Tilde),
			2.0 * a.LockBound,
		}
	}
	return []float64{1e-3 * horizon, 1e-2 * horizon, 5e-2 * horizon, 0.1 * horizon}
}

// defaultModels builds the campaign grid: SETs at four strike times for
// each width, stuck-at-0/1 at three onsets, and the three wrapper fault
// families on channel edges. Over the 4-site SPF circuit this yields 102
// scenarios.
func defaultModels(widths []float64, horizon float64) []fault.Model {
	var out []fault.Model
	for _, frac := range []float64{0.05, 0.25, 0.5, 0.8} {
		for _, w := range widths {
			out = append(out, fault.SET{At: frac * horizon, Width: w})
		}
	}
	for _, v := range []signal.Value{signal.High, signal.Low} {
		for _, frac := range []float64{0, 0.25, 0.6} {
			out = append(out, fault.StuckAt{V: v, From: frac * horizon})
		}
	}
	out = append(out,
		fault.DelayPushout{DUp: 0.01 * horizon, DDown: 0.01 * horizon},
		fault.DelayPushout{DUp: 0.05 * horizon},
		fault.DelayPushout{DDown: 0.05 * horizon},
		fault.Drop{From: 0, Count: 1},
		fault.Drop{From: 0, Count: 3},
		fault.Dup{Gap: 0.02 * horizon, Width: 0.01 * horizon},
		fault.Dup{Gap: 0.1 * horizon, Width: 0.05 * horizon},
	)
	return out
}
