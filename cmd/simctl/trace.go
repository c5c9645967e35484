package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"involution/internal/cluster"
	"involution/internal/obs/tracing"
	"involution/internal/sim"
)

// traceOutput bundles the -trace-out plumbing of sweep/campaign: a JSONL
// span sink, the tracer writing to it, and the command's root span. The
// nil *traceOutput is the disabled state; every method is safe on it, so
// call sites need no conditionals.
type traceOutput struct {
	tracer *tracing.Tracer
	root   *tracing.Span
	sink   *tracing.JSONLSink
	f      *os.File
}

// openTraceOutput creates path, roots a trace named op on it, and
// announces the trace id on stdout (the handle `simctl trace` takes).
// An empty path returns the disabled (nil) traceOutput.
func openTraceOutput(path, op string, stdout io.Writer) (*traceOutput, error) {
	if path == "" {
		return nil, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	sink := tracing.NewJSONLSink(f)
	tr := tracing.New("simctl", sink)
	root := tr.StartRoot(op)
	fmt.Fprintf(stdout, "trace %s (spans → %s)\n", root.Context().TraceID, path)
	return &traceOutput{tracer: tr, root: root, sink: sink, f: f}, nil
}

func (to *traceOutput) Tracer() *tracing.Tracer {
	if to == nil {
		return nil
	}
	return to.tracer
}

// context returns ctx carrying the root span, so the engine's scenario
// spans and the coordinator's dispatch spans parent under it.
func (to *traceOutput) context(ctx context.Context) context.Context {
	if to == nil {
		return ctx
	}
	return tracing.ContextWith(ctx, to.root)
}

// child opens a named child of the root span ("merge" around report
// assembly). Nil-safe: returns the nil span when tracing is off.
func (to *traceOutput) child(name string) *tracing.Span {
	if to == nil {
		return nil
	}
	return to.tracer.StartChild(to.root, name)
}

// close ends the root span and flushes the file. Write errors surface
// here, once, as a warning — span loss never fails the run itself.
func (to *traceOutput) close(stderr io.Writer) {
	if to == nil {
		return
	}
	to.root.End()
	if err := to.sink.Err(); err != nil {
		fmt.Fprintf(stderr, "simctl: trace-out: %v\n", err)
	}
	if err := to.f.Close(); err != nil {
		fmt.Fprintf(stderr, "simctl: trace-out: %v\n", err)
	}
}

// isTraceID reports whether s looks like a 32-hex trace identifier (vs a
// 64-hex job content hash).
func isTraceID(s string) bool {
	if len(s) != 32 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if !('0' <= c && c <= '9' || 'a' <= c && c <= 'f') {
			return false
		}
	}
	return true
}

func splitPeers(s string) []string {
	var peers []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			peers = append(peers, p)
		}
	}
	return peers
}

// runTrace renders the cross-node timeline of one trace (or one job hash):
// spans fetched from every peer's flight recorder, merged with the local
// -trace-out file when given, ordered by start offset and indented by
// parentage.
func runTrace(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("simctl trace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	peersFlag := fs.String("peers", "", "comma-separated simd node addresses to query for retained spans")
	spansPath := fs.String("spans", "", "local span JSONL file (a sweep/campaign -trace-out) to merge into the timeline")
	timeout := fs.Duration("timeout", 10*time.Second, "per-node fetch timeout")
	// The trace-id/hash may come before or after the flags (the flag
	// package stops at the first positional argument).
	var key string
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		key, args = args[0], args[1:]
	}
	if err := fs.Parse(args); err != nil {
		return sim.ExitUsage
	}
	if key == "" && fs.NArg() == 1 {
		key = fs.Arg(0)
	} else if (key == "" && fs.NArg() != 1) || (key != "" && fs.NArg() != 0) {
		fmt.Fprintln(stderr, "simctl trace: want exactly one <trace-id | job-hash> argument")
		return sim.ExitUsage
	}
	peers := splitPeers(*peersFlag)
	if len(peers) == 0 && *spansPath == "" {
		return fatal(stderr, fmt.Errorf("nothing to read: give -peers and/or -spans"))
	}

	query := "?trace=" + key
	traceID := key
	if !isTraceID(key) {
		query = "?hash=" + key
		traceID = "" // resolved from the first matching entry
	}

	client := cluster.NewClient(*timeout, nil, "")
	var spans []tracing.SpanRec
	for _, addr := range peers {
		ctx, cancel := context.WithTimeout(context.Background(), *timeout)
		entries, err := client.DebugJobs(ctx, addr, query)
		cancel()
		if err != nil {
			fmt.Fprintf(stderr, "simctl trace: %v (continuing without that node)\n", err)
			continue
		}
		for _, e := range entries {
			if traceID == "" {
				traceID = e.TraceID
			}
			spans = append(spans, e.Spans...)
		}
	}
	if *spansPath != "" {
		f, err := os.Open(*spansPath)
		if err != nil {
			return fatal(stderr, err)
		}
		local, err := tracing.ReadJSONL(f)
		f.Close()
		if err != nil {
			return fatal(stderr, err)
		}
		spans = append(spans, local...)
	}

	tl := tracing.NewTimeline(traceID, spans)
	if len(tl.Spans) == 0 {
		return fatal(stderr, fmt.Errorf("no spans found for %q (flight recorders are bounded; slow and aborted jobs are retained longest)", key))
	}
	if err := tl.Render(stdout); err != nil {
		return fatal(stderr, err)
	}
	return 0
}

// runTop polls the fleet's flight recorders and renders the slowest
// retained jobs, slowest first — `top` for simulations. -once prints a
// single table (the CI mode); otherwise it refreshes until interrupted.
func runTop(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("simctl top", flag.ContinueOnError)
	fs.SetOutput(stderr)
	peersFlag := fs.String("peers", "", "comma-separated simd node addresses (required unless -attack)")
	n := fs.Int("n", 10, "rows to show")
	interval := fs.Duration("interval", 2*time.Second, "refresh period")
	once := fs.Bool("once", false, "print one table and exit")
	timeout := fs.Duration("timeout", 10*time.Second, "per-node fetch timeout")
	attackGlob := fs.String("attack", "", "glob of attack progress files (simctl attack -progress) to render as an ATTACK section")
	if err := fs.Parse(args); err != nil {
		return sim.ExitUsage
	}
	peers := splitPeers(*peersFlag)
	if len(peers) == 0 && *attackGlob == "" {
		return fatal(stderr, fmt.Errorf("-peers is required (comma-separated simd addresses)"))
	}

	ctx, stopSignals := signalContext()
	defer stopSignals()
	client := cluster.NewClient(*timeout, nil, "")

	for {
		// Running attack searches, when asked for: their coordinators keep
		// per-generation progress files current, no fleet round-trip needed.
		if *attackGlob != "" {
			paths, err := filepath.Glob(*attackGlob)
			if err != nil {
				return fatal(stderr, err)
			}
			sort.Strings(paths)
			attackProgressSection(stdout, paths)
			fmt.Fprintln(stdout)
		}
		if len(peers) > 0 {
			printFleet(ctx, client, peers, *n, *timeout, stdout, stderr)
		}
		if *once {
			return 0
		}
		select {
		case <-ctx.Done():
			return sim.ExitCanceled
		case <-time.After(*interval):
		}
		fmt.Fprintln(stdout)
	}
}

// printFleet renders top's fleet tables: each node's health and load, then
// the n slowest jobs its flight recorder retains.
func printFleet(ctx context.Context, client *cluster.Client, peers []string, n int, timeout time.Duration, stdout, stderr io.Writer) {
	fmt.Fprintf(stdout, "%-20s %-10s %8s %8s %6s %8s %10s\n", "NODE", "HEALTH", "QUEUE", "RUNNING", "WIDTH", "SHED", "THROTTLED")
	for _, addr := range peers {
		fctx, cancel := context.WithTimeout(ctx, timeout)
		h, _ := client.Health(fctx, addr) // a draining node's 503 still carries its snapshot
		cancel()
		if h.Status == "" {
			fmt.Fprintf(stdout, "%-20s %-10s %8s %8s %6s %8s %10s\n", addr, "down", "-", "-", "-", "-", "-")
			continue
		}
		fmt.Fprintf(stdout, "%-20s %-10s %8d %8d %6d %8d %10d\n", addr, h.Status, h.Queue, h.Running, h.Width, h.Shed, h.Throttled)
	}
	fmt.Fprintln(stdout)

	var all []tracing.JobEntry
	for _, addr := range peers {
		fctx, cancel := context.WithTimeout(ctx, timeout)
		entries, err := client.DebugJobs(fctx, addr, fmt.Sprintf("?n=%d", n))
		cancel()
		if err != nil {
			fmt.Fprintf(stderr, "simctl top: %v\n", err)
			continue
		}
		all = append(all, entries...)
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].DurNS > all[j].DurNS })
	if len(all) > n {
		all = all[:n]
	}
	fmt.Fprintf(stdout, "%-12s %-10s %-10s %-20s %-16s %s\n", "DURATION", "STATUS", "CLASS", "NODE", "HASH", "TRACE")
	for _, e := range all {
		hash := e.Hash
		if len(hash) > 16 {
			hash = hash[:16]
		}
		fmt.Fprintf(stdout, "%-12s %-10s %-10s %-20s %-16s %s\n",
			fmt.Sprintf("%.3fms", float64(e.DurNS)/1e6), e.Status, e.Class, e.Node, hash, e.TraceID)
	}
}
