package main

// Plumbing shared by the subcommands: the -in stimulus flag, netlist
// loading and input binding, the SIGINT/SIGTERM context, the -pprof debug
// server and its keepalive, report writers and the abort → exit-code
// mapping.

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	ossignal "os/signal"
	"strings"
	"syscall"

	"involution/internal/circuit"
	"involution/internal/netlist"
	"involution/internal/obs"
	"involution/internal/signal"
	"involution/internal/sim"
	"involution/internal/trace"
)

// stimuli is the repeatable -in flag: '<port>=<signal>'.
type stimuli map[string]signal.Signal

func (s stimuli) String() string { return fmt.Sprintf("%d stimuli", len(s)) }

func (s stimuli) Set(v string) error {
	name, text, ok := strings.Cut(v, "=")
	if !ok {
		return fmt.Errorf("want <port>=<signal>, got %q", v)
	}
	sig, err := signal.Parse(strings.TrimSpace(text))
	if err != nil {
		return err
	}
	s[strings.TrimSpace(name)] = sig
	return nil
}

// bind maps every input port of c to its -in stimulus, defaulting
// unmentioned ports to constant zero. A stimulus for a port c does not
// have is an error.
func (s stimuli) bind(c *circuit.Circuit) (map[string]signal.Signal, error) {
	inputs := map[string]signal.Signal{}
	for _, name := range c.Inputs() {
		if sig, ok := s[name]; ok {
			inputs[name] = sig
		} else {
			inputs[name] = signal.Zero()
		}
	}
	for name := range s {
		if _, ok := inputs[name]; !ok {
			return nil, fmt.Errorf("stimulus for unknown input port %q", name)
		}
	}
	return inputs, nil
}

// readNetlist parses the netlist file at path and builds its circuit.
func readNetlist(path string) (*netlist.Document, *circuit.Circuit, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	doc, err := netlist.ParseDocument(f)
	f.Close()
	if err != nil {
		return nil, nil, err
	}
	c, err := doc.Build()
	if err != nil {
		return nil, nil, err
	}
	return doc, c, nil
}

// signalContext returns a context that SIGINT/SIGTERM cancels, so runs
// drain cooperatively and still flush their partial artifacts.
func signalContext() (context.Context, context.CancelFunc) {
	return ossignal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
}

// serveDebug starts the -pprof server on addr: net/http/pprof, reg's
// Prometheus text at /metrics and its snapshot at /debug/vars. It returns
// the bound address (addr may name port 0); an empty addr serves nothing.
func serveDebug(addr string, reg *obs.Registry, stdout, stderr io.Writer) (string, error) {
	if addr == "" {
		return "", nil
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	reg.PublishExpvar("simctl")
	http.Handle("/metrics", reg.Handler())
	go func() { fmt.Fprintln(stderr, "simctl: pprof server:", http.Serve(ln, nil)) }()
	bound := ln.Addr().String()
	fmt.Fprintf(stdout, "profiling server on http://%s/debug/pprof/ (metrics at /metrics, expvar at /debug/vars)\n", bound)
	return bound, nil
}

// keepalive parks the process after the run so the -pprof server on addr
// stays up; it returns at once when no server runs. It releases the
// signal context first: the run is over, so the next SIGINT/SIGTERM
// terminates the process instead of canceling nothing.
func keepalive(stdout io.Writer, addr string, stopSignals context.CancelFunc) {
	if addr == "" {
		return
	}
	stopSignals()
	fmt.Fprintf(stdout, "run finished; profiling server still on %s — interrupt to exit\n", addr)
	select {}
}

// abortOf unwraps a mid-run simulation abort and its cause-specific exit
// code (the sim.ExitCode table). ok is false for any other error.
func abortOf(err error) (ab *sim.AbortError, code int, ok bool) {
	if !errors.As(err, &ab) {
		return nil, 0, false
	}
	return ab, sim.ExitCode(ab.Class()), true
}

// writeStats writes the -stats-json report to path ("-" = stdout, "" =
// skip).
func writeStats(stdout io.Writer, path string, report trace.StatsReport) error {
	return writeReport(stdout, path, func(w io.Writer) error { return trace.WriteStatsJSON(w, report) })
}

// writeReport writes one report rendering to path ("-" = stdout, "" = skip).
func writeReport(stdout io.Writer, path string, render func(w io.Writer) error) error {
	if path == "" {
		return nil
	}
	if path == "-" {
		return render(stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := render(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %s\n", path)
	return nil
}

// exitCodeUsage makes fs print its flags followed by the shared exit-code
// table under the one-line synopsis.
func exitCodeUsage(fs *flag.FlagSet, synopsis string) {
	fs.Usage = func() {
		out := fs.Output()
		fmt.Fprintln(out, "usage:", synopsis)
		fs.PrintDefaults()
		fmt.Fprintf(out, `
Exit codes:
  %d  success
  %d  usage or I/O error
  %d  run aborted: event budget exhausted (or other mid-run abort)
  %d  run aborted: wall-clock deadline exceeded
  %d  run aborted: panic recovered inside the simulation
  %d  run canceled by SIGINT/SIGTERM
`, sim.ExitOK, sim.ExitUsage, sim.ExitAbort, sim.ExitDeadline, sim.ExitPanic, sim.ExitCanceled)
	}
}

func fatal(w io.Writer, err error) int {
	fmt.Fprintln(w, "simctl:", err)
	return 1
}
