package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	"involution/internal/attack"
	"involution/internal/cluster"
	"involution/internal/experiments"
	"involution/internal/fault"
	"involution/internal/netlist"
	"involution/internal/server/api"
	"involution/internal/signal"
	"involution/internal/sim"
	"involution/internal/spf"
)

// Sweep workload shape: the `simctl sweep` campaign — the Fig. 5 SPF
// netlist under four adversaries, SET strikes on its input edge — as an
// endless stream of chunks. Each chunk draws a fresh seeded grid of strike
// widths (spanning the cancel, metastable and lock regimes) and times, so
// no request repeats within a run and every job is a cache miss.
const (
	sweepPerChunk = 32 // scenarios per adversary per chunk
	sweepHorizon  = 1200
	// passChunks is the work one fleet does before it is replaced.
	passChunks = 8
	// maxSamples bounds the jobs per pass re-run in-process after it.
	maxSamples  = 4
	sampleEvery = 97
)

var sweepAdversaries = []string{"zero", "worst", "maxup", "uniform"}

var sweepSite = fault.Site{From: spf.NodeIn, To: spf.NodeOr, Pin: 0}

type sweepSpec struct {
	adv  string
	doc  *netlist.Document
	camp *fault.Campaign
	sys  *spf.System
}

// sweepStream is one seed's request stream.
type sweepStream struct {
	seed  int64
	specs []sweepSpec
}

func newSweepStream(seed int64) (*sweepStream, error) {
	s := &sweepStream{seed: seed}
	for _, adv := range sweepAdversaries {
		doc, sys, err := experiments.SPFNetlist(adv, seed)
		if err != nil {
			return nil, err
		}
		c, err := doc.Build()
		if err != nil {
			return nil, err
		}
		s.specs = append(s.specs, sweepSpec{adv: adv, doc: doc, sys: sys, camp: &fault.Campaign{
			Circuit: c,
			Inputs:  map[string]signal.Signal{spf.NodeIn: signal.Zero()},
			Horizon: sweepHorizon,
			Seed:    seed,
			Probes:  []string{spf.NodeOr, spf.NodeHT},
		}})
	}
	return s, nil
}

// scenarios returns chunk k's grid for adversary i.
func (s *sweepStream) scenarios(k, i int) []fault.Scenario {
	rng := rand.New(rand.NewSource(mix(s.seed, int64(k), int64(i))))
	a := s.specs[i].sys.Analysis
	lo, hi := 0.3*a.CancelBound, 2*a.LockBound
	models := make([]fault.Model, sweepPerChunk)
	for j := range models {
		models[j] = fault.SET{At: 1 + 19*rng.Float64(), Width: lo + (hi-lo)*rng.Float64()}
	}
	return fault.Grid([]fault.Site{sweepSite}, models)
}

// mix derives an independent rng seed from a seed and two indices
// (splitmix64 finalizer).
func mix(seed, a, b int64) int64 {
	x := uint64(seed) + uint64(a+1)*0x9E3779B97F4A7C15 + uint64(b+1)*0xD1B54A32D192ED03
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return int64(x)
}

// sweeper runs the stream against one fleet at a time.
type sweeper struct {
	r      *result
	s      *sweepStream
	f      *fleet
	timed  bool // false: set-up probes, which observe nothing
	k      int  // next chunk
	sample sampler

	checked int // sampled jobs re-run in-process
}

// chunk runs chunk k — one fault.Engine campaign per adversary,
// sweepInFlight jobs in flight — and returns the digest of its merged
// report rows. The digest is computed with the clock paused.
func (sw *sweeper) chunk(ctx context.Context, k int) (string, error) {
	w := sw.r.window()
	h := sha256.New()
	for i, spec := range sw.s.specs {
		var exec fault.Executor = &cluster.CampaignExecutor{Coord: sw.f.coord, Doc: spec.doc, Inputs: spec.camp.Inputs}
		if sw.timed {
			exec = &timedExecutor{inner: exec, r: sw.r, spec: i, sample: &sw.sample}
		}
		eng := &fault.Engine{Campaign: spec.camp, Opts: fault.Options{Workers: sweepInFlight, MaxRetries: 2, Executor: exec}}
		rep, err := eng.Run(ctx, sw.s.scenarios(k, i))
		if err != nil {
			return "", err
		}
		if sw.timed {
			w.pause()
		}
		writeRows(h, spec.adv, rep)
		if sw.timed {
			w.resume()
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// writeRows writes report rows in `simctl sweep -csv` form.
func writeRows(h hash.Hash, adv string, rep *fault.Report) {
	for _, row := range rep.Rows {
		fmt.Fprintf(h, "%s,%d,%s,%s,%s,%s,%d,%d,%d,%d\n", adv, row.ID, row.Site, row.Model, row.Outcome,
			row.Abort, row.Attempts, row.Scheduled, row.Delivered, row.Canceled)
	}
}

// firstJob runs the stream's first scenario: the job setup_s waits for.
func (sw *sweeper) firstJob(ctx context.Context) error {
	spec := sw.s.specs[0]
	eng := &fault.Engine{Campaign: spec.camp, Opts: fault.Options{Workers: 1, Executor: &cluster.CampaignExecutor{
		Coord: sw.f.coord, Doc: spec.doc, Inputs: spec.camp.Inputs}}}
	rep, err := eng.Run(ctx, sw.s.scenarios(0, 0)[:1])
	if err != nil {
		return err
	}
	if len(rep.Rows) != 1 || rep.Rows[0].Abort != "" {
		return fmt.Errorf("first sweep job aborted: %+v", rep.Rows)
	}
	return nil
}

// timedExecutor is the client's view of one sweep job: it times each
// fault.Executor call into the current window and keeps a sample of the
// calls for the in-process re-run.
type timedExecutor struct {
	inner  fault.Executor
	r      *result
	spec   int
	sample *sampler
}

func (e *timedExecutor) Execute(ctx context.Context, sc fault.Scenario, seed int64, opts sim.Options, probes []string) (map[string]signal.Signal, sim.RunStats, error) {
	ctx, end := e.r.tr.startJob(ctx)
	t0 := time.Now()
	sigs, stats, err := e.inner.Execute(ctx, sc, seed, opts, probes)
	lat := time.Since(t0)
	end()
	e.r.window().observe(lat, stats.Delivered, err)
	if err == nil {
		e.sample.offer(execArgs{spec: e.spec, sc: sc, seed: seed, opts: opts, probes: probes})
	}
	return sigs, stats, err
}

type execArgs struct {
	spec   int
	sc     fault.Scenario
	seed   int64
	opts   sim.Options
	probes []string
}

// sampler keeps every sampleEvery-th job, up to maxSamples.
type sampler struct {
	mu   sync.Mutex
	seen int
	kept []execArgs
}

func (s *sampler) offer(a execArgs) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.seen%sampleEvery == 0 && len(s.kept) < maxSamples {
		s.kept = append(s.kept, a)
	}
	s.seen++
}

// request rebuilds the node request of a sampled job exactly as
// cluster.CampaignExecutor builds it.
func (s *sweepStream) request(a execArgs) (api.Request, error) {
	spec := s.specs[a.spec]
	ov, err := a.sc.Model.(fault.OverlayFault).Overlay(a.sc.Site, rand.New(rand.NewSource(a.seed)))
	if err != nil {
		return api.Request{}, err
	}
	doc, _, err := cluster.InstrumentOverlay(spec.doc, spec.camp.Inputs, a.sc.Site, ov, a.probes)
	if err != nil {
		return api.Request{}, err
	}
	stim := map[string]string{fault.CtlInput: ov.Ctl.String()}
	for name, sig := range spec.camp.Inputs {
		stim[name] = sig.String()
	}
	return api.Request{
		Netlist:    doc.String(),
		Inputs:     stim,
		Horizon:    a.opts.Horizon,
		MaxEvents:  a.opts.MaxEvents,
		DeadlineMS: a.opts.Deadline.Milliseconds(),
	}, nil
}

// crossCheck re-runs the sampled fleet jobs in-process and compares
// result hashes; in the traced window it also times them directly for the
// sim.* and netlist.* metrics.
func (sw *sweeper) crossCheck(ctx context.Context) error {
	for _, a := range sw.sample.kept {
		req, err := sw.s.request(a)
		if err != nil {
			return err
		}
		if err := compareWithLocal(ctx, sw.r, sw.f, req); err != nil {
			return err
		}
		sw.checked++
	}
	return nil
}

// compareWithLocal asks the fleet and attack.Local for req and checks
// that both return the same ResultHash. The fleet answers a job it ran
// from its coordinator's checkpoint or its caches.
func compareWithLocal(ctx context.Context, r *result, f *fleet, req api.Request) error {
	got, err := f.coord.RunOne(ctx, req)
	if err != nil {
		return err
	}
	want, err := attack.NewLocal().RunOne(ctx, req)
	if err != nil {
		return err
	}
	r.check(got.ResultHash == want.ResultHash, "fleet ResultHash %.12s differs from in-process %.12s", got.ResultHash, want.ResultHash)
	if r.tr.enabled() {
		if _, _, err := runDirect(ctx, req, nil, &r.sims); err != nil {
			return err
		}
	}
	return nil
}

// lakeDirs returns the two nodes' lake directories under dir/name.
func lakeDirs(dir, name string) []string {
	return []string{filepath.Join(dir, name, "a"), filepath.Join(dir, name, "b")}
}

// probeSetup times setupProbes fleet start-ups over fresh empty lakes,
// each until its first job has answered.
func probeSetup(ctx context.Context, cfg config, r *result, first func(*fleet) error) error {
	for i := 0; i < setupProbes; i++ {
		dirs := lakeDirs(cfg.dir, fmt.Sprintf("probe%d", i))
		t0 := time.Now()
		f, err := r.startFleet(dirs, filepath.Join(cfg.dir, fmt.Sprintf("probe%d.ckpt", i)))
		if err != nil {
			return err
		}
		err = first(f)
		r.setups = append(r.setups, time.Since(t0))
		if serr := f.stop(); err == nil {
			err = serr
		}
		if err != nil {
			return err
		}
		if err := os.RemoveAll(filepath.Dir(dirs[0])); err != nil {
			return err
		}
	}
	return nil
}

// passes runs timed passes until the window is full. Each pass starts a
// fleet off the clock, runs up to passChunks chunks of the stream on the
// clock, re-runs the pass's sampled jobs in-process, and stops the fleet.
// Bounding the work per fleet keeps each fleet's lake and job table the
// same size however fast the stack is. The stream continues from pass to
// pass.
func (sw *sweeper) passes(ctx context.Context, start func() (*fleet, error), check func(k int, digest string)) error {
	w := sw.r.window()
	for !w.full() {
		f, err := start()
		if err != nil {
			return err
		}
		sw.f, sw.sample = f, sampler{}
		err = sw.pass(ctx, check)
		if err == nil {
			err = sw.crossCheck(ctx)
		}
		if serr := f.stop(); err == nil {
			err = serr
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func (sw *sweeper) pass(ctx context.Context, check func(k int, digest string)) error {
	seg, err := sw.r.begin(sw.f)
	if err != nil {
		return err
	}
	for end := sw.k + passChunks; sw.k < end && !seg.w.full(); sw.k++ {
		d, err := sw.chunk(ctx, sw.k)
		if err != nil {
			seg.end()
			return err
		}
		check(sw.k, d)
	}
	return seg.end()
}

// runSweep streams fresh chunks through fleets with empty lakes.
func runSweep(cfg config) (*result, error) {
	ctx := context.Background()
	r := newResult(cfg)
	s, err := newSweepStream(cfg.seed)
	if err != nil {
		return nil, err
	}
	if err := probeSetup(ctx, cfg, r, func(f *fleet) error {
		return (&sweeper{r: r, s: s, f: f}).firstJob(ctx)
	}); err != nil {
		return nil, err
	}
	lakes := lakeDirs(cfg.dir, "lakes")
	starts := 0
	start := func() (*fleet, error) {
		starts++
		if err := os.RemoveAll(filepath.Dir(lakes[0])); err != nil {
			return nil, err
		}
		return r.startFleet(lakes, filepath.Join(cfg.dir, fmt.Sprintf("sweep%d.ckpt", starts)))
	}
	sw := &sweeper{r: r, s: s, timed: true}
	err = windows(r, func() { sw.k = 0 }, func() error {
		return sw.passes(ctx, start, func(k int, d string) {
			if k == 0 {
				r.setDigest(d)
			}
		})
	})
	r.note("sweep: %d chunks of %d jobs (%d adversaries x %d SET strikes) on %d fleets; %d sampled jobs re-run in-process",
		sw.k, len(sweepAdversaries)*sweepPerChunk, len(sweepAdversaries), sweepPerChunk, starts, sw.checked)
	return r, err
}

// warmUp is how long a run drives its workload before the untraced
// window starts (never longer than the window). The first seconds after start-up are slower, while the
// heap grows to its working size.
const warmUp = 2 * time.Second

// windows runs the warm-up, the untraced window and, in --trace 1 runs,
// the traced one. rewind, when non-nil, restarts the workload's input
// stream before each window, so every window does the same work and the
// difference between the last two is the tracing overhead.
func windows(r *result, rewind func(), loop func() error) error {
	limit := r.plain.limit
	r.plain.limit = min(warmUp, limit)
	if err := loop(); err != nil {
		return err
	}
	r.attempted += r.plain.jobs
	r.failed += r.plain.failed
	if r.plain.failed > 0 {
		r.problems = append(r.problems, fmt.Sprintf("%d warm-up jobs failed", r.plain.failed))
	}
	r.plain = window{limit: limit}
	for _, traced := range []bool{false, true} {
		if traced && r.tr == nil {
			break
		}
		if rewind != nil {
			rewind()
		}
		if r.tr != nil {
			r.tr.on.Store(traced)
		}
		if err := loop(); err != nil {
			return err
		}
	}
	return nil
}

// setDigest records the digest of the stream's first unit of work, or
// checks it against the one already recorded when the work repeats.
func (r *result) setDigest(d string) {
	if r.digest == "" {
		r.digest = d
		return
	}
	r.check(d == r.digest, "repeated work digest %.12s differs from %.12s", d, r.digest)
}
