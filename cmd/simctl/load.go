package main

// simctl load floods a simd node with open-loop traffic — offered
// arrivals do not wait for completions, the way a crowd of independent
// clients behaves — and reports whether the node's overload protection
// held: goodput, shed/throttle counts, latency quantiles, and a strict
// zero-lost audit (every 2xx-accepted submit must come back with a
// terminal record).
//
//	simctl load -addr http://127.0.0.1:8080 -rate 200 -duration 10s
//	simctl load -addr 127.0.0.1:8080 -x 4 -duration 10s       # 4x measured capacity
//	simctl load -x 4 -tenants 8 -churn 2s -zipf 1.2 -deadline-ms 500
//	simctl load -x 4 -want-sheds -max-lost 0 -max-p99 5s -json # CI assertion mode
//
// Offered rate comes from -rate (submits/sec), or from -x k: the node's
// single-job service time is measured with one uncached calibration
// submit, its pool width read from /healthz, and the offered rate set to
// k × width / serviceTime — "k times what the node can actually finish".
//
// Traffic shape: request keys are drawn Zipf(-zipf) from a -keyspace pool
// (hot keys exercise the result cache under flood), tenant API keys
// rotate through -tenants synthetic identities with a fresh generation
// every -churn (exercising the server's dynamic-tenant table), and
// -deadline-ms arms the server's deadline-aware shedding on every submit.
//
// Assertions (for CI): -want-sheds requires at least one 429/503,
// -max-lost bounds accepted-but-unreturned jobs (set 0 to forbid any),
// -max-p99 bounds the accepted-submit p99 latency, -min-goodput sets a
// goodput floor in submits/sec. A violated assertion exits 2; transport,
// calibration or usage errors exit 1; a clean run exits 0. -json prints
// the full machine-readable load.Result to stdout.

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"time"

	"involution/internal/cluster"
	"involution/internal/load"
	"involution/internal/sim"
)

func runLoad(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("simctl load", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "http://127.0.0.1:8080", "simd node base URL")
	duration := fs.Duration("duration", 10*time.Second, "offering window")
	rate := fs.Float64("rate", 0, "offered submits/sec (0: derive from -x)")
	mult := fs.Float64("x", 0, "offered load as a multiple of measured node capacity (calibrates first)")
	clients := fs.Int("clients", 64, "submitter concurrency")
	tenants := fs.Int("tenants", 0, "synthetic tenant API keys to rotate through (0: anonymous)")
	churn := fs.Duration("churn", 0, "tenant generation rotation period (0: one generation)")
	keyspace := fs.Int("keyspace", 64, "distinct request contents")
	zipf := fs.Float64("zipf", 1.2, "hot-key skew exponent (<=1: uniform)")
	deadlineMS := fs.Int64("deadline-ms", 0, "X-Deadline-Ms stamped on every submit (0: none)")
	horizon := fs.Float64("horizon", 30, "simulated horizon per job")
	seed := fs.Int64("seed", 1, "random-stream seed")
	timeout := fs.Duration("timeout", 30*time.Second, "per-request HTTP timeout")
	jsonOut := fs.Bool("json", false, "print the machine-readable result to stdout")
	wantSheds := fs.Bool("want-sheds", false, "assert: at least one 429/503 shed observed")
	maxLost := fs.Int64("max-lost", -1, "assert: at most this many accepted-but-unreturned jobs (-1: off, 0: forbid any)")
	maxP99 := fs.Duration("max-p99", 0, "assert: accepted-submit p99 latency bound (0: off)")
	minGoodput := fs.Float64("min-goodput", 0, "assert: goodput floor in accepted submits/sec (0: off)")
	if err := fs.Parse(args); err != nil {
		return sim.ExitUsage
	}
	if *rate <= 0 && *mult <= 0 {
		return fatal(stderr, fmt.Errorf("one of -rate or -x is required"))
	}

	ctx, stopSignals := signalContext()
	defer stopSignals()
	base := cluster.BaseURL(*addr)

	offered := *rate
	if offered <= 0 {
		// Calibrate: one uncached job times the service path, /healthz
		// reports the pool width; k× capacity = k·width/serviceTime.
		svc, err := load.Calibrate(ctx, base, *horizon, time.Now().UnixNano(), *timeout)
		if err != nil {
			return fatal(stderr, fmt.Errorf("calibration: %w", err))
		}
		hctx, cancel := context.WithTimeout(ctx, *timeout)
		h, err := cluster.NewClient(*timeout, nil, "").Health(hctx, base)
		cancel()
		if err != nil {
			return fatal(stderr, fmt.Errorf("reading pool width: %w", err))
		}
		width := max(h.Width, 1)
		offered = max(*mult*float64(width)/svc.Seconds(), 1)
		fmt.Fprintf(stderr, "simctl load: calibrated service time %v, width %d -> offering %.1f submits/s (%.1fx capacity)\n",
			svc.Round(time.Millisecond), width, offered, *mult)
	}

	fmt.Fprintf(stderr, "simctl load: flooding %s for %v at %.1f submits/s (tenants=%d keyspace=%d zipf=%g deadline=%dms)\n",
		base, *duration, offered, *tenants, *keyspace, *zipf, *deadlineMS)

	res, err := load.Run(ctx, load.Profile{
		Addr:       base,
		Duration:   *duration,
		Rate:       offered,
		Clients:    *clients,
		Tenants:    *tenants,
		Churn:      *churn,
		KeySpace:   *keyspace,
		ZipfS:      *zipf,
		DeadlineMS: *deadlineMS,
		Horizon:    *horizon,
		Seed:       *seed,
		Timeout:    *timeout,
	})
	if err != nil && res.Offered == 0 {
		return fatal(stderr, err)
	}
	fmt.Fprintf(stderr, "simctl load: %s\n", res)

	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			return fatal(stderr, fmt.Errorf("encoding result: %w", err))
		}
	}

	failed := false
	fail := func(format string, args ...any) {
		failed = true
		fmt.Fprintf(stderr, "simctl load: FAIL: "+format+"\n", args...)
	}
	if *wantSheds && res.ShedQuota+res.ShedCapacity == 0 {
		fail("expected sheds under overload, saw none (offered %d, accepted %d)", res.Offered, res.Accepted)
	}
	if *maxLost >= 0 && res.Lost > *maxLost {
		fail("lost %d accepted jobs, allowed %d", res.Lost, *maxLost)
	}
	if *maxP99 > 0 && res.P99 > *maxP99 {
		fail("p99 %v exceeds bound %v", res.P99, *maxP99)
	}
	if *minGoodput > 0 && res.GoodputRPS < *minGoodput {
		fail("goodput %.1f/s below floor %.1f/s", res.GoodputRPS, *minGoodput)
	}
	if res.RetryAfterMissing > 0 {
		fail("%d sheds arrived without a Retry-After header", res.RetryAfterMissing)
	}
	if failed {
		return sim.ExitAbort
	}
	fmt.Fprintln(stderr, "simctl load: PASS")
	return sim.ExitOK
}
