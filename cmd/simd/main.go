// Command simd serves simulations over HTTP: POST a netlist or a built-in
// circuit name with channel/adversary/horizon/budget parameters to
// /v1/jobs and get back a content-addressed job — identical seeded
// requests are answered from a bounded LRU result cache, everything else
// runs on a bounded worker pool with per-job isolation (a panicking or
// runaway simulation becomes a typed aborted job record, never a dead
// server).
//
// Usage:
//
//	simd                                  # listen on :8080
//	simd -listen :9090 -workers 8 -queue 128 -cache-bytes 67108864
//	simd -jobs-json jobs.jsonl -drain 30s
//	simd -tenants tenants.json -default-rps 100
//
// Overload protection: -tenants / -default-rps switch on per-tenant
// admission control (API keys via X-Api-Key or a bearer token; quota
// refusals are 429 + Retry-After), submits carrying an X-Deadline-Ms
// header are shed with 503 when the estimated queue wait exceeds the
// budget, and a full queue answers 503. The pool runs a fixed -workers
// jobs at once; the bounded queue and the deadline shed are its only
// overload controls. Sheds are counted in the simd_shed_<reason>_total metric family and
// surfaced per node by `simctl top`.
//
// Endpoints: POST /v1/jobs (submit; ?wait=1 blocks for the result,
// ?stream=trace streams the live event trace and cancels the job if the
// client disconnects), GET /v1/jobs, GET /v1/jobs/{id},
// GET /v1/jobs/{id}/trace, GET /v1/circuits, GET /healthz, GET /version,
// GET /metrics (Prometheus text with the simd_* families), and
// GET /debug/jobs — the flight recorder's retained slowest/aborted jobs
// as JSONL span trees (?trace=, ?hash=, ?n= filters), the data behind
// `simctl trace` and `simctl top`. Every job is traced into the flight
// recorder; submits carrying a W3C traceparent header stitch into the
// caller's distributed trace. The recorder keeps the 32 slowest and the
// 64 most recent aborted jobs.
//
// On SIGINT/SIGTERM the server drains gracefully: new submissions are
// rejected with 503, queued and running jobs finish (jobs still running
// after -drain have their contexts canceled and finish as typed canceled
// aborts), job records are flushed to -jobs-json as JSONL, and the process
// exits 0.
//
// Exit codes: 0 on a clean run or drain, 1 on usage or listen errors.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	ossignal "os/signal"
	"runtime"
	"syscall"
	"time"

	"involution/internal/admission"
	"involution/internal/lake"
	"involution/internal/server"
	"involution/internal/sim"
)

// version is stamped by the build (-ldflags "-X main.version=…").
var version = "dev"

func main() {
	os.Exit(run())
}

func run() int {
	fs := flag.NewFlagSet("simd", flag.ContinueOnError)
	listen := fs.String("listen", ":8080", "listen address")
	workers := fs.Int("workers", 0, "simulation worker-pool size (default: GOMAXPROCS)")
	queue := fs.Int("queue", 64, "queued-job bound; full queues reject submits with 503")
	cacheBytes := fs.Int64("cache-bytes", 32<<20, "RAM result-cache byte bound (negative disables caching)")
	lakeDir := fs.String("lake", "", "persistent result-lake directory: completed results are written through and survive restarts; identical submits are answered from disk (default: no lake)")
	lakeBytes := fs.Int64("lake-bytes", 1<<30, "result-lake byte bound; oldest segments are collected past it")
	advertise := fs.String("advertise", "", "address this node believes it serves on, echoed in /healthz and /version so coordinators can verify routing (default: none)")
	jobsJSON := fs.String("jobs-json", "", "flush job records to this file as JSONL on shutdown")
	drain := fs.Duration("drain", 30*time.Second, "graceful-drain bound; stragglers are canceled after it")
	tenantsPath := fs.String("tenants", "", "multi-tenant admission config (JSON: {\"tenants\":[{\"key\":…,\"rps\":…,\"events_per_sec\":…}],\"default\":{…}}); default: no per-tenant limits")
	defaultRPS := fs.Float64("default-rps", 0, "request-rate limit applied to every key without a -tenants entry, anonymous included (0: unlimited)")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return sim.ExitUsage
	}

	if *workers <= 0 {
		*workers = runtime.GOMAXPROCS(0)
	}
	var admCfg admission.Config
	if *tenantsPath != "" {
		raw, err := os.ReadFile(*tenantsPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "simd: -tenants: %v\n", err)
			return sim.ExitUsage
		}
		if err := json.Unmarshal(raw, &admCfg); err != nil {
			fmt.Fprintf(os.Stderr, "simd: -tenants: %v\n", err)
			return sim.ExitUsage
		}
	}
	if *defaultRPS > 0 {
		admCfg.Default.RPS = *defaultRPS
	}
	var ctl *admission.Controller
	if len(admCfg.Tenants) > 0 || admCfg.Default != (admission.Limits{}) {
		ctl = admission.New(admCfg)
		fmt.Fprintf(os.Stderr, "simd: admission control on (%d configured tenants, default rps=%g)\n",
			len(admCfg.Tenants), admCfg.Default.RPS)
	}
	var lk *lake.Lake
	if *lakeDir != "" {
		var err error
		lk, err = lake.Open(lake.Options{Dir: *lakeDir, MaxBytes: *lakeBytes})
		if err != nil {
			fmt.Fprintf(os.Stderr, "simd: -lake: %v\n", err)
			return sim.ExitUsage
		}
		st := lk.Stats()
		fmt.Fprintf(os.Stderr, "simd: result lake %s (%d results, %d bytes, %d segments)\n",
			*lakeDir, st.Entries, st.Bytes, st.Segments)
	}
	srv := server.New(server.Config{
		Workers:    *workers,
		QueueDepth: *queue,
		CacheBytes: *cacheBytes,
		Lake:       lk,
		Version:    version,
		Advertise:  *advertise,
		Admission:  ctl,
	})
	hs := &http.Server{Addr: *listen, Handler: srv.Handler()}

	ctx, stop := ossignal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		fmt.Fprintf(os.Stderr, "simd: listening on %s (workers=%d queue=%d cache-bytes=%d)\n",
			*listen, *workers, *queue, *cacheBytes)
		errc <- hs.ListenAndServe()
	}()

	select {
	case err := <-errc:
		// ListenAndServe only returns on error here (Shutdown is below).
		fmt.Fprintf(os.Stderr, "simd: %v\n", err)
		return sim.ExitUsage
	case <-ctx.Done():
	}
	stop() // restore default signal behavior: a second signal kills hard

	fmt.Fprintf(os.Stderr, "simd: signal received, draining (bound %v)\n", *drain)
	srv.Drain(*drain)

	sctx, cancel := context.WithTimeout(context.Background(), *drain+5*time.Second)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintf(os.Stderr, "simd: shutdown: %v\n", err)
	}
	<-errc // reap the ListenAndServe goroutine (returns ErrServerClosed)

	if *jobsJSON != "" {
		f, err := os.Create(*jobsJSON)
		if err != nil {
			fmt.Fprintf(os.Stderr, "simd: jobs-json: %v\n", err)
			return sim.ExitUsage
		}
		werr := srv.WriteJobRecords(f)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			fmt.Fprintf(os.Stderr, "simd: jobs-json: %v\n", werr)
			return sim.ExitUsage
		}
		fmt.Fprintf(os.Stderr, "simd: job records flushed to %s\n", *jobsJSON)
	}
	// Close the lake only after the drain: write-throughs come from pool
	// workers, and every one of them has finished by now.
	if lk != nil {
		if err := lk.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "simd: lake close: %v\n", err)
		}
	}
	fmt.Fprintln(os.Stderr, "simd: drained, bye")
	return sim.ExitOK
}
