package main

// simctl spf: simulate the Short-Pulse Filtration circuit of Fig. 5
// (fed-back OR gate + high-threshold buffer) for one input pulse length
// and adversary, printing the Section IV analysis, the regime prediction
// and the simulated traces. Aborts of the main Δ₀ simulation exit with the
// shared sim.ExitCode table and still flush -stats-json with partial
// counts; analysis errors exit 1.

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"

	"involution/internal/adversary"
	"involution/internal/core"
	"involution/internal/delay"
	"involution/internal/obs"
	"involution/internal/sim"
	"involution/internal/spf"
	"involution/internal/trace"
)

func runSPF(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("simctl spf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	tau := fs.Float64("tau", 1, "exp-channel RC constant τ of the loop channel")
	tp := fs.Float64("tp", 0.5, "exp-channel pure delay Tp")
	vth := fs.Float64("vth", 0.6, "exp-channel threshold Vth ∈ (0,1)")
	etaP := fs.Float64("eta+", 0.04, "η⁺ bound")
	etaM := fs.Float64("eta-", 0.03, "η⁻ bound")
	delta0 := fs.Float64("delta0", -1, "input pulse length Δ₀ (< 0: use Δ̃₀ + 1e-3)")
	advName := fs.String("adversary", "worst", "zero|worst|maxup|uniform|walk")
	seed := fs.Int64("seed", 1, "random adversary seed")
	horizon := fs.Float64("horizon", 500, "simulation horizon")
	vcd := fs.String("vcd", "", "write traces as VCD to this file")
	window := fs.Bool("window", false, "also measure the adaptive-adversary metastable window")
	slowInput := fs.Float64("slowinput", 0, "find an input whose resolution exceeds this deadline (0 = off)")
	stats := fs.Bool("stats", false, "print run statistics for the main Δ₀ simulation")
	statsJSON := fs.String("stats-json", "", `write the machine-readable stats report to this file ("-" = stdout)`)
	traceEvents := fs.String("trace-events", "", "stream a JSONL event trace of the main Δ₀ simulation to this file")
	pprofAddr := fs.String("pprof", "", "serve net/http/pprof, /metrics and /debug/vars on this address (e.g. :6060) and stay alive after the run")
	exitCodeUsage(fs, "simctl spf [-tau 1 -tp 0.5 -vth 0.6 -eta+ 0.04 -eta- 0.03] [-delta0 d] [-adversary worst] [flags]")
	if err := fs.Parse(args); err != nil {
		return sim.ExitUsage
	}

	// Ctrl-C / SIGTERM cancels the running simulation cooperatively; the
	// -stats-json report is still flushed with the partial counts.
	ctx, stopSignals := signalContext()
	defer stopSignals()

	reg := obs.NewRegistry()
	debugAddr, err := serveDebug(*pprofAddr, reg, stdout, stderr)
	if err != nil {
		return fatal(stderr, err)
	}

	pair, err := delay.Exp(delay.ExpParams{Tau: *tau, TP: *tp, Vth: *vth})
	if err != nil {
		return fatal(stderr, err)
	}
	loop, err := core.New(pair, adversary.Eta{Plus: *etaP, Minus: *etaM})
	if err != nil {
		return fatal(stderr, err)
	}
	if ok, slack, err := loop.ConstraintC(); err != nil || !ok {
		return fatal(stderr, fmt.Errorf("constraint (C) violated (slack %g): reduce η⁺/η⁻ (err: %v)", slack, err))
	}
	sys, err := spf.NewSystem(loop)
	if err != nil {
		return fatal(stderr, err)
	}
	sys.Context = ctx
	a := sys.Analysis
	fmt.Fprintf(stdout, "loop channel: exp(τ=%g, Tp=%g, Vth=%g), η=[−%g,+%g]\n", *tau, *tp, *vth, *etaM, *etaP)
	fmt.Fprintf(stdout, "analysis    : δmin=%.4f  τ̄=P=%.4f  Δ̄=%.4f  γ̄=%.4f  a=%.4f\n",
		a.DeltaMin, a.Tau, a.DeltaBar, a.Gamma, a.LipschitzA)
	fmt.Fprintf(stdout, "regimes     : cancel ≤ %.4f | metastable (Δ̃₀=%.6f) | ≥ %.4f lock\n",
		a.CancelBound, a.Delta0Tilde, a.LockBound)
	fmt.Fprintf(stdout, "HT buffer   : exp(τ=%.4g, Tp=%.4g, Vth=%.4g)\n", sys.Buffer.Tau, sys.Buffer.TP, sys.Buffer.Vth)

	d0 := *delta0
	if d0 < 0 {
		d0 = a.Delta0Tilde + 1e-3
	}
	var mk func() adversary.Strategy
	switch *advName {
	case "zero":
		mk = nil
	case "worst":
		mk = func() adversary.Strategy { return adversary.MinUpTime{} }
	case "maxup":
		mk = func() adversary.Strategy { return adversary.MaxUpTime{} }
	case "uniform":
		mk = func() adversary.Strategy { return adversary.Uniform{Rng: rand.New(rand.NewSource(*seed))} }
	case "walk":
		mk = func() adversary.Strategy {
			return &adversary.RandomWalk{Rng: rand.New(rand.NewSource(*seed)), Step: (*etaP + *etaM) / 10}
		}
	default:
		return fatal(stderr, fmt.Errorf("unknown adversary %q", *advName))
	}

	fmt.Fprintf(stdout, "\nΔ₀ = %.6f → predicted regime: %s\n", d0, a.Classify(d0))
	var et *trace.EventTrace
	var traceFile *os.File
	if *traceEvents != "" {
		if traceFile, err = os.Create(*traceEvents); err != nil {
			return fatal(stderr, err)
		}
		et = trace.NewEventTrace(traceFile)
		sys.Observer = et
	}
	ob, err := sys.Observe(d0, mk, *horizon)
	exit := sim.ExitOK
	abortMsg := ""
	if err != nil {
		ab, code, ok := abortOf(err)
		if !ok {
			return fatal(stderr, err)
		}
		// Aborted mid-run (canceled, budget, …): report the partial profile,
		// still flush the stats artifacts below, and exit with the
		// cause-specific code.
		exit, abortMsg, ob.Stats = code, err.Error(), ab.Stats
		fmt.Fprintf(stderr, "simctl: run aborted after %d events: %v\n", ab.Stats.Delivered, err)
	}
	aborted := exit != sim.ExitOK
	// Detach the trace sink so the auxiliary runs below (-window,
	// -slowinput, -vcd) don't append to the main run's event stream.
	sys.Observer = nil
	if et != nil {
		if err := et.Flush(); err != nil {
			return fatal(stderr, err)
		}
		if err := traceFile.Close(); err != nil {
			return fatal(stderr, err)
		}
		fmt.Fprintf(stdout, "wrote %s\n", *traceEvents)
	}
	if !aborted {
		fmt.Fprintf(stdout, "loop (OR out, %d transitions, %d pulses): %v\n", ob.Loop.Len(), ob.Pulses, clip(ob.Loop, 14))
		fmt.Fprintf(stdout, "output (after HT buffer): %v\n", ob.Out)
		fmt.Fprintf(stdout, "final loop value %v; stabilization time %.4f; max tail up-time %.4f (Δ̄=%.4f); max tail duty %.4f (γ̄=%.4f)\n",
			ob.Resolved, ob.StabilizationTime, ob.MaxUpTail, a.DeltaBar, ob.MaxDutyTail, a.Gamma)
	}

	if *stats {
		fmt.Fprint(stdout, trace.FormatStats(ob.Stats))
	}
	if err := writeStats(stdout, *statsJSON, trace.StatsReport{
		Circuit: "spf",
		Horizon: *horizon,
		Events:  ob.Stats.Delivered,
		Aborted: aborted,
		Error:   abortMsg,
		Stats:   ob.Stats,
	}); err != nil {
		return fatal(stderr, err)
	}
	trace.RegisterRunStats(reg, ob.Stats)
	if aborted {
		// The auxiliary sweeps below would just re-hit the same abort.
		return exit
	}

	if *window {
		w, err := sys.MetastableWindow(101, *horizon)
		if err != nil {
			return fatal(stderr, err)
		}
		fmt.Fprintf(stdout, "\nadaptive-adversary metastable window: Δ₀ ∈ [%.4f, %.4f] (width %.4f), pinned up-time %.4f\n",
			w.Lo, w.Hi, w.Width, w.Target)
	}
	if *slowInput > 0 {
		d, slow, err := sys.FindSlowInput(*slowInput, *horizon)
		if err != nil {
			return fatal(stderr, err)
		}
		fmt.Fprintf(stdout, "\nslow-input witness: Δ₀ = %.12f resolves only at t = %.3f (%d pulses) — no stabilization bound exists\n",
			d, slow.StabilizationTime, slow.Pulses)
	}
	if *vcd != "" {
		res, err := sys.RunPulse(d0, mk, *horizon, spf.NodeIn, spf.NodeHT)
		if err != nil {
			return fatal(stderr, err)
		}
		if err := writeReport(stdout, *vcd, func(w io.Writer) error {
			return trace.WriteVCD(w, res.Signals, "1ps", 1e-3)
		}); err != nil {
			return fatal(stderr, err)
		}
	}
	keepalive(stdout, debugAddr, stopSignals)
	return sim.ExitOK
}

// clip formats at most n leading transitions of a signal.
func clip(s interface{ String() string }, n int) string {
	str := s.String()
	count := 0
	for i := range str {
		if str[i] == ' ' {
			count++
			if count > n {
				return str[:i] + " …"
			}
		}
	}
	return str
}
