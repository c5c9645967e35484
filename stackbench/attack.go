package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync/atomic"
	"time"

	"involution/internal/attack"
	"involution/internal/obs/tracing"
	"involution/internal/server/api"
)

// Attack workload shape: back-to-back defeat-spf anneal campaigns of a
// fixed size, each on a fresh fleet with cold lakes and a fresh
// generation journal. Campaign p of a run uses seed mix(seed, p).
const (
	attackGenerations = 6
	attackBatch       = 16
	// attackChecks is how many fresh evaluations per campaign are re-run
	// in-process after it.
	attackChecks = 4
)

// timedEvaluator is the client's view of one attack evaluation: it times
// each attack.Evaluator call into the current window.
type timedEvaluator struct {
	inner attack.Evaluator
	r     *result
	calls atomic.Int64
}

func (e *timedEvaluator) RunOne(ctx context.Context, req api.Request) (api.Record, error) {
	ctx, end := e.r.tr.startJob(ctx)
	t0 := time.Now()
	rec, err := e.inner.RunOne(ctx, req)
	lat := time.Since(t0)
	end()
	var p struct {
		Events int64 `json:"events"`
	}
	if err == nil {
		err = json.Unmarshal(rec.Result, &p)
	}
	e.calls.Add(1)
	e.r.window().observe(lat, p.Events, err)
	return rec, err
}

// attackDigest hashes the campaign's search-deterministic outcome: best
// key, breaking count and per-generation summary (cache-tier counters
// are left out; they depend on what the fleet already held).
func attackDigest(res *attack.Result) string {
	h := sha256.New()
	fmt.Fprintf(h, "best %s breaking %d\n", res.Best.Key, res.Breaking)
	for _, g := range res.Gens {
		fmt.Fprintf(h, "gen %d %d %d %d %s %s\n", g.Gen, g.Evals, g.Rejected, g.Breaking, g.BestKey,
			strconv.FormatFloat(g.BestScore, 'g', -1, 64))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// center is the middle of the objective's search space, the candidate the
// set-up probes evaluate.
func center(space attack.Space) []float64 {
	x := make([]float64, len(space.Dims))
	for i, d := range space.Dims {
		x[i] = (d.Min + d.Max) / 2
	}
	return space.Snap(x)
}

func runAttack(cfg config) (*result, error) {
	ctx := context.Background()
	r := newResult(cfg)
	obj, err := attack.NewDefeatSPF(0)
	if err != nil {
		return nil, err
	}
	probe, err := obj.Request(center(obj.Space()))
	if err != nil {
		return nil, err
	}
	if err := probeSetup(ctx, cfg, r, func(f *fleet) error {
		j, err := attack.OpenJournal(filepath.Join(cfg.dir, "probe.journal"), false, attack.JournalHeader{})
		if err != nil {
			return err
		}
		if _, err := f.coord.RunOne(ctx, probe); err != nil {
			j.Close()
			return err
		}
		return j.Close()
	}); err != nil {
		return nil, err
	}

	var gens tracing.Buffer
	campaigns := 0
	loop := func() error {
		w := r.window()
		for !w.full() {
			if err := r.campaign(ctx, cfg, obj, campaigns, &gens); err != nil {
				return err
			}
			campaigns++
		}
		return nil
	}
	if err := windows(r, func() { campaigns = 0 }, loop); err != nil {
		return nil, err
	}
	var genTime time.Duration
	n := 0
	for _, sp := range gens.Spans() {
		if sp.Name == "generation" {
			genTime += sp.Duration()
			n++
		}
	}
	if n > 0 {
		r.layers["attack.gen_ms"] = ms(genTime) / float64(n)
	}
	if evals := r.layers["attack.evals"]; evals > 0 {
		r.layers["attack.dedup_ratio"] = r.layers["attack.deduped"] / evals
	}
	r.note("attack: %d campaigns of %d generations x %d candidates in the last window", campaigns, attackGenerations, attackBatch)
	return r, nil
}

// campaign runs campaign p on a fresh fleet, then re-runs a sample of its
// fresh evaluations in-process off the clock. Traced campaigns add their
// generation spans to gens and their evaluation counts to the layers.
func (r *result) campaign(ctx context.Context, cfg config, obj *attack.DefeatSPF, p int, gens *tracing.Buffer) (err error) {
	dir := filepath.Join(cfg.dir, fmt.Sprintf("campaign%d", p))
	defer os.RemoveAll(dir)
	f, err := r.startFleet(lakeDirs(dir, "lakes"), "")
	if err != nil {
		return err
	}
	defer func() {
		if serr := f.stop(); err == nil {
			err = serr
		}
	}()
	sr, err := attack.NewSearcher("anneal")
	if err != nil {
		return err
	}
	seed := mix(cfg.seed, int64(p), 0)
	if p == 0 {
		seed = cfg.seed
	}
	hdr := attack.JournalHeader{Objective: obj.Name(), Searcher: sr.Name(), Seed: seed, Batch: attackBatch}
	path := filepath.Join(dir, "journal")
	j, err := attack.OpenJournal(path, false, hdr)
	if err != nil {
		return err
	}
	ev := &timedEvaluator{inner: f.coord, r: r}
	run := attack.Config{
		Objective:   obj,
		Searcher:    sr,
		Eval:        ev,
		Generations: attackGenerations,
		Batch:       attackBatch,
		Seed:        seed,
		Workers:     inFlight,
		Journal:     j,
	}
	traced := r.tr.enabled()
	if traced {
		run.Tracer = tracing.New("stackbench", gens)
	}
	seg, err := r.begin(f)
	if err != nil {
		j.Close()
		return err
	}
	res, err := attack.Run(ctx, run)
	if err != nil {
		seg.end()
		j.Close()
		return err
	}
	seg.w.addJobs(res.Evals - int(ev.calls.Load()))
	if err := seg.end(); err != nil {
		j.Close()
		return err
	}
	if err := j.Close(); err != nil {
		return err
	}
	if traced {
		r.layers["attack.evals"] += float64(res.Evals)
		r.layers["attack.deduped"] += float64(res.Deduped)
	}
	if p == 0 {
		r.setDigest(attackDigest(res))
	}

	// Re-read the journal and re-run some fresh evaluations in-process.
	j, err = attack.OpenJournal(path, true, hdr)
	if err != nil {
		return err
	}
	defer j.Close()
	checked := 0
	for _, e := range j.Entries() {
		for _, sc := range e.Scored {
			if checked == attackChecks || sc.Eval.Dedup != "" || sc.Eval.Score <= attack.InfeasibleScore {
				continue
			}
			req, err := obj.Request(sc.X)
			if err != nil {
				return err
			}
			if err := compareWithLocal(ctx, r, f, req); err != nil {
				return err
			}
			checked++
		}
	}
	r.check(len(j.Entries()) == attackGenerations, "campaign %d journaled %d of %d generations", p, len(j.Entries()), attackGenerations)
	return nil
}
