package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	"involution/internal/netlist"
	"involution/internal/server"
	"involution/internal/server/api"
	"involution/internal/signal"
	"involution/internal/sim"
)

// simAcc accumulates direct, benchmark-timed netlist and sim.Run calls.
type simAcc struct {
	n                  int
	compile, run       time.Duration
	events, scheduled  int64
	cancels, hwm       int64
	mallocs, allocated uint64
}

func (a *simAcc) layers(vals map[string]float64) {
	if a.n == 0 {
		return
	}
	n := float64(a.n)
	vals["netlist.compile_us"] = us(a.compile) / n
	vals["sim.run_us"] = us(a.run) / n
	vals["sim.queue_hwm"] = float64(a.hwm) / n
	vals["sim.cancels"] = float64(a.cancels)
	vals["sim.scheduled"] = float64(a.scheduled)
	if a.scheduled > 0 {
		vals["sim.cancel_ratio"] = float64(a.cancels) / float64(a.scheduled)
	}
	if a.events > 0 {
		vals["sim.ns_per_event"] = float64(a.run) / float64(a.events)
		vals["sim.allocs_per_event"] = float64(a.mallocs) / float64(a.events)
		vals["sim.bytes_per_event"] = float64(a.allocated) / float64(a.events)
	}
}

// runDirect executes one netlist request in-process the way a node does:
// netlist.ParseDocument + Build, signal.Parse of every stimulus, sim.Run.
// It returns the run and its output signals in canonical syntax. With acc
// non-nil it times the compile and sim steps (and counts sim.Run
// allocations) into acc; with tracing on it records them as children of
// the job in ctx.
func runDirect(ctx context.Context, req api.Request, tr *tracer, acc *simAcc) (*sim.Result, map[string]string, error) {
	t0 := time.Now()
	doc, err := netlist.ParseDocument(strings.NewReader(req.Netlist))
	if err != nil {
		return nil, nil, err
	}
	c, err := doc.Build()
	if err != nil {
		return nil, nil, err
	}
	inputs := make(map[string]signal.Signal, len(req.Inputs))
	for name, text := range req.Inputs {
		sig, err := signal.Parse(text)
		if err != nil {
			return nil, nil, fmt.Errorf("input %s: %w", name, err)
		}
		inputs[name] = sig
	}
	for _, name := range c.Inputs() {
		if _, ok := inputs[name]; !ok {
			inputs[name] = signal.Zero()
		}
	}
	tr.child(ctx, spanCompile, t0)
	compiled := time.Now()

	horizon := req.Horizon
	if horizon == 0 {
		horizon = server.DefaultHorizon
	}
	var ms runtime.MemStats
	if acc != nil {
		runtime.ReadMemStats(&ms)
	}
	mallocs, allocated := ms.Mallocs, ms.TotalAlloc
	t1 := time.Now()
	res, err := sim.Run(c, inputs, sim.Options{Horizon: horizon, MaxEvents: req.MaxEvents})
	ran := time.Since(t1)
	tr.child(ctx, spanSim, t1)
	if err != nil {
		return nil, nil, err
	}
	if acc != nil {
		runtime.ReadMemStats(&ms)
		acc.n++
		acc.compile += compiled.Sub(t0)
		acc.run += ran
		acc.events += int64(res.Events)
		acc.scheduled += res.Stats.Scheduled
		acc.cancels += res.Stats.Canceled
		acc.hwm += int64(res.Stats.QueueHighWater)
		acc.mallocs += ms.Mallocs - mallocs
		acc.allocated += ms.TotalAlloc - allocated
	}
	outs := make(map[string]string, len(c.Outputs()))
	for _, name := range c.Outputs() {
		outs[name] = res.Signals[name].String()
	}
	return res, outs, nil
}

// outputDigest hashes output-port signals given in canonical syntax.
func outputDigest(outs map[string]string) string {
	names := make([]string, 0, len(outs))
	for n := range outs {
		names = append(names, n)
	}
	sort.Strings(names)
	h := sha256.New()
	for _, n := range names {
		fmt.Fprintf(h, "%s=%s\n", n, outs[n])
	}
	return hex.EncodeToString(h.Sum(nil))
}
