package main

// simctl run: event-simulate a text netlist (see package netlist for the
// format) with -in stimuli and print or dump the traces. Each -in flag
// assigns a stimulus to an input port in signal.String syntax: the
// initial value, then r@t / f@t edges; unmentioned inputs stay at zero.
//
// -stats prints a human-readable run profile, -stats-json writes the
// machine-readable report (schema in README §Observability),
// -trace-events streams a JSONL event trace, and -pprof serves
// net/http/pprof plus /metrics and /debug/vars and keeps the process
// alive after the run. Aborted runs exit with the shared sim.ExitCode
// table and still emit their stats with partial counts.

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"involution/internal/obs"
	"involution/internal/sim"
	"involution/internal/trace"
)

func runSim(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("simctl run", flag.ContinueOnError)
	fs.SetOutput(stderr)
	file := fs.String("f", "", "netlist file (required)")
	horizon := fs.Float64("horizon", 100, "simulation horizon")
	maxEvents := fs.Int("max-events", 0, "event budget for the run (0: simulator default)")
	deadline := fs.Duration("deadline", 0, "wall-clock deadline for the run (0: none)")
	vcd := fs.String("vcd", "", "write traces as VCD to this file")
	wavejson := fs.String("wavejson", "", "write traces as WaveDrom WaveJSON to this file")
	dot := fs.String("dot", "", "write the circuit graph as DOT to this file")
	resolution := fs.Float64("resolution", 1e-3, "VCD time resolution")
	tick := fs.Float64("tick", 0.5, "WaveJSON tick size")
	stats := fs.Bool("stats", false, "print run statistics (events, queue, delta cycles, cancels)")
	statsJSON := fs.String("stats-json", "", `write the machine-readable stats report to this file ("-" = stdout)`)
	traceEvents := fs.String("trace-events", "", "stream a JSONL event trace to this file")
	pprofAddr := fs.String("pprof", "", "serve net/http/pprof, /metrics and /debug/vars on this address (e.g. :6060) and stay alive after the run")
	in := stimuli{}
	fs.Var(in, "in", "input stimulus, e.g. 'i=0 r@1 f@2.5' (repeatable)")
	exitCodeUsage(fs, "simctl run -f design.net [-in 'i=0 r@1 f@2.5'] [flags]")
	if err := fs.Parse(args); err != nil {
		return sim.ExitUsage
	}
	if *file == "" {
		return fatal(stderr, fmt.Errorf("missing -f netlist file"))
	}

	// Ctrl-C / SIGTERM cancels the run cooperatively: the simulator aborts
	// at its next event and every requested stats artifact is still written
	// with the partial counts before exiting with sim.ExitCanceled.
	ctx, stopSignals := signalContext()
	defer stopSignals()

	reg := obs.NewRegistry()
	debugAddr, err := serveDebug(*pprofAddr, reg, stdout, stderr)
	if err != nil {
		return fatal(stderr, err)
	}

	_, c, err := readNetlist(*file)
	if err != nil {
		return fatal(stderr, err)
	}
	st := c.Stats()
	fmt.Fprintf(stdout, "circuit %s: %d inputs, %d outputs, %d gates, %d channels (%d zero-delay)\n",
		c.Name, st.Inputs, st.Outputs, st.Gates, st.Channels, st.ZeroDelay)

	if *dot != "" {
		if err := os.WriteFile(*dot, []byte(c.DOT()), 0o644); err != nil {
			return fatal(stderr, err)
		}
		fmt.Fprintf(stdout, "wrote %s\n", *dot)
	}
	inputs, err := in.bind(c)
	if err != nil {
		return fatal(stderr, err)
	}

	// The listing and the VCD and WaveJSON reports show every node.
	opts := sim.Options{Horizon: *horizon, MaxEvents: *maxEvents, Deadline: *deadline, Context: ctx}
	for _, n := range c.Nodes() {
		opts.Record = append(opts.Record, n.Name)
	}
	var et *trace.EventTrace
	var traceFile *os.File
	if *traceEvents != "" {
		if traceFile, err = os.Create(*traceEvents); err != nil {
			return fatal(stderr, err)
		}
		et = trace.NewEventTrace(traceFile)
		opts.Observer = et
	}

	res, err := sim.Run(c, inputs, opts)
	exit := sim.ExitOK
	var runStats sim.RunStats
	abortMsg := ""
	if err != nil {
		ab, code, ok := abortOf(err)
		if !ok {
			return fatal(stderr, err)
		}
		// Aborted mid-run: report the partial profile and exit with the
		// cause-specific code, but still emit every requested stats
		// artifact below.
		exit, abortMsg, runStats = code, err.Error(), ab.Stats
		fmt.Fprintf(stderr, "simctl: run aborted after %d events: %v\n", ab.Stats.Delivered, err)
	} else {
		runStats = res.Stats
		fmt.Fprintf(stdout, "%d events processed up to t=%g\n", res.Events, res.Horizon)
		names := make([]string, 0, len(res.Signals))
		for n := range res.Signals {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(stdout, "  %-12s %v\n", n, res.Signals[n])
		}
	}
	aborted := exit != sim.ExitOK

	if et != nil {
		if err := et.Flush(); err != nil {
			return fatal(stderr, err)
		}
		if err := traceFile.Close(); err != nil {
			return fatal(stderr, err)
		}
		fmt.Fprintf(stdout, "wrote %s\n", *traceEvents)
	}

	if *stats {
		fmt.Fprint(stdout, trace.FormatStats(runStats))
	}
	if err := writeStats(stdout, *statsJSON, trace.StatsReport{
		Circuit: c.Name,
		Horizon: *horizon,
		Events:  runStats.Delivered,
		Aborted: aborted,
		Error:   abortMsg,
		Stats:   runStats,
	}); err != nil {
		return fatal(stderr, err)
	}

	if !aborted {
		if err := writeReport(stdout, *vcd, func(w io.Writer) error {
			return trace.WriteVCD(w, res.Signals, "1ps", *resolution)
		}); err != nil {
			return fatal(stderr, err)
		}
		if err := writeReport(stdout, *wavejson, func(w io.Writer) error {
			return trace.WriteWaveJSON(w, res.Signals, *tick, *horizon)
		}); err != nil {
			return fatal(stderr, err)
		}
	}

	trace.RegisterRunStats(reg, runStats)
	keepalive(stdout, debugAddr, stopSignals)
	return exit
}
