package main

// simctl attack: search-driven adversarial campaigns. Where `simctl sweep`
// replays a fixed scenario grid, attack *optimizes*: a Searcher proposes
// generations of candidate perturbations (η schedules, adversary timing,
// pulse placement), every generation fans out as content-addressed jobs —
// through the fleet coordinator with -peers (cache- and lake-deduped
// across generations and runs), in-process without — and the report
// places the best-found attacks against the paper's faithfulness
// constraint (C).
//
// With -checkpoint the generation journal makes the search crash-safe:
// kill the process at any point, rerun with -resume, and the final report
// is byte-identical to an uninterrupted run (the CSV deliberately omits
// cache-tier counters, which legitimately differ between a cold and a
// warmed-up fleet).

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"strconv"
	"strings"

	"involution/internal/attack"
	"involution/internal/obs"
	"involution/internal/sim"
)

func runAttack(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("simctl attack", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cf clusterFlags
	cf.register(fs)
	objective := fs.String("objective", "defeat-spf", "attack objective: defeat-spf | max-stabilize")
	searcher := fs.String("searcher", "anneal", "search strategy: grid | anneal | cem")
	generations := fs.Int("generations", 8, "search generations")
	batch := fs.Int("batch", 16, "candidates per generation")
	seed := fs.Int64("seed", 7, "search seed (proposals, acceptance and the report derive from it)")
	budget := fs.Float64("budget", 0, "attack budget (defeat-spf: bound on eta+ + eta-; 0: objective default)")
	workers := fs.Int("workers", 8, "concurrent evaluations per generation")
	csvPath := fs.String("csv", "", `write the per-generation report as CSV to this file ("-" = stdout)`)
	progress := fs.String("progress", "", "atomically rewrite this JSON file after every generation (the `simctl top -attack` feed)")
	traceOut := fs.String("trace-out", "", "record the search's spans as JSONL to this file and print the trace id")
	if err := fs.Parse(args); err != nil {
		return sim.ExitUsage
	}

	// With -checkpoint the attack's generation journal takes the named
	// path; in fleet mode the coordinator's job journal rides along at
	// <path>.jobs so one flag makes both layers crash-safe.
	attackCkpt := cf.checkpoint
	if cf.resume && attackCkpt == "" {
		return fatal(stderr, fmt.Errorf("-resume needs -checkpoint"))
	}
	if attackCkpt != "" {
		cf.checkpoint = attackCkpt + ".jobs"
	}

	obj, err := newObjective(*objective, *budget)
	if err != nil {
		return fatal(stderr, err)
	}
	sr, err := attack.NewSearcher(*searcher)
	if err != nil {
		return fatal(stderr, err)
	}

	ctx, stopSignals := signalContext()
	defer stopSignals()

	to, err := openTraceOutput(*traceOut, "attack", stdout)
	if err != nil {
		return fatal(stderr, err)
	}
	defer to.close(stderr)
	ctx = to.context(ctx)

	reg := obs.NewRegistry()
	local := cf.peers == ""
	var eval attack.Evaluator
	if local {
		eval = attack.NewLocal()
	} else {
		coord, err := cf.coordinator(reg, to.Tracer())
		if err != nil {
			return fatal(stderr, err)
		}
		defer coord.Close()
		eval = coord
	}

	var journal *attack.Journal
	if attackCkpt != "" {
		journal, err = attack.OpenJournal(attackCkpt, cf.resume, attack.JournalHeader{
			Objective: obj.Name(),
			Searcher:  sr.Name(),
			Seed:      *seed,
			Batch:     *batch,
		})
		if err != nil {
			return fatal(stderr, err)
		}
		defer journal.Close()
	}

	res, err := attack.Run(ctx, attack.Config{
		Objective:   obj,
		Searcher:    sr,
		Eval:        eval,
		Generations: *generations,
		Batch:       *batch,
		Seed:        *seed,
		Workers:     *workers,
		Journal:     journal,
		Metrics:     attack.NewMetrics(reg),
		Tracer:      to.Tracer(),
		Progress:    *progress,
	})
	interrupted := errors.Is(err, context.Canceled)
	if err != nil && !interrupted {
		return fatal(stderr, err)
	}
	if interrupted {
		fmt.Fprintln(stderr, "simctl: interrupted — journaled generations are durable, rerun with -resume")
	}

	printAttackReport(stdout, obj, res)
	if err := writeReport(stdout, *csvPath, func(w io.Writer) error {
		return writeAttackCSV(w, obj, res)
	}); err != nil {
		return fatal(stderr, err)
	}
	fmt.Fprintf(stdout, "dedup: %d/%d evaluations answered without a fresh simulation (%d lake)\n",
		res.Deduped, res.Evals, res.LakeHits)
	if !local {
		clusterSummary(stdout, reg)
	}
	if interrupted {
		return sim.ExitCanceled
	}
	if res.Breaking == 0 {
		return sim.ExitAbort
	}
	return 0
}

func newObjective(name string, budget float64) (attack.Objective, error) {
	switch name {
	case "defeat-spf":
		return attack.NewDefeatSPF(budget)
	case "max-stabilize":
		return attack.NewMaxStabilize()
	default:
		return nil, fmt.Errorf("unknown objective %q (want defeat-spf or max-stabilize)", name)
	}
}

// printAttackReport renders the deterministic human-facing summary: the
// search trajectory, the best-found attacks and — when the objective can
// place candidates against constraint (C) — each attack's position
// relative to the faithful region.
func printAttackReport(w io.Writer, obj attack.Objective, res *attack.Result) {
	fmt.Fprintf(w, "attack %s searcher=%s seed=%d batch=%d\n", res.Objective, res.Searcher, res.Seed, res.Batch)
	fmt.Fprintf(w, "%-4s %6s %9s %9s %12s  %s\n", "GEN", "EVALS", "REJECTED", "BREAKING", "BEST", "KEY")
	for _, g := range res.Gens {
		best := "-"
		if g.BestScore > attack.InfeasibleScore {
			best = fmt.Sprintf("%.4f", g.BestScore)
		}
		fmt.Fprintf(w, "%-4d %6d %9d %9d %12s  %s\n", g.Gen, g.Evals, g.Rejected, g.Breaking, best, g.BestKey)
	}
	fmt.Fprintf(w, "evaluations: %d (rejected %d)  breaking: %d", res.Evals, res.Rejected, res.Breaking)
	if res.FirstBreakEval > 0 {
		fmt.Fprintf(w, " (first at evaluation %d)", res.FirstBreakEval)
	}
	fmt.Fprintln(w)
	if res.BestGen < 0 {
		fmt.Fprintln(w, "no evaluable candidate")
		return
	}
	if len(res.Top) == 0 {
		fmt.Fprintf(w, "no breaking attack found; best candidate (gen %d, score %.4f): %s\n    %s\n",
			res.BestGen, res.Best.Eval.Score, res.Best.Key, obj.Describe(res.Best.X))
		return
	}
	fmt.Fprintf(w, "best-found attacks (top %d distinct):\n", len(res.Top))
	for i, t := range res.Top {
		fmt.Fprintf(w, "  #%d score %.4f  %s\n      %s  [%s]\n", i+1, t.Eval.Score, t.Key, obj.Describe(t.X), t.Eval.Detail)
	}
}

// writeAttackCSV renders the machine-readable report. It contains only
// search-deterministic columns: cache-tier counters (memo/mem/lake) depend
// on what previous runs left in the fleet's caches, and the CSV is the
// artifact kill/resume tests compare byte-for-byte.
func writeAttackCSV(w io.Writer, obj attack.Objective, res *attack.Result) error {
	cr, _ := obj.(attack.ConstraintReporter)
	if _, err := fmt.Fprintln(w, "kind,gen,evals,rejected,breaking,score,key,detail,eta_plus,eta_minus,slack,violates_c"); err != nil {
		return err
	}
	g := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	for _, gen := range res.Gens {
		score := ""
		if gen.BestScore > attack.InfeasibleScore {
			score = g(gen.BestScore)
		}
		if _, err := fmt.Fprintf(w, "gen,%d,%d,%d,%d,%s,%q,,,,,\n",
			gen.Gen, gen.Evals, gen.Rejected, gen.Breaking, score, gen.BestKey); err != nil {
			return err
		}
	}
	rows := res.Top
	if len(rows) == 0 && res.BestGen >= 0 {
		rows = []attack.Scored{res.Best}
	}
	for i, t := range rows {
		var ep, em, slack, viol string
		if cr != nil {
			c := cr.Constraint(t.X)
			ep, em, slack = g(c.EtaPlus), g(c.EtaMinus), g(c.Slack)
			viol = strconv.FormatBool(c.Violated)
		}
		if _, err := fmt.Fprintf(w, "top%d,,,,,%s,%q,%q,%s,%s,%s,%s\n",
			i+1, g(t.Eval.Score), t.Key, t.Eval.Detail, ep, em, slack, viol); err != nil {
			return err
		}
	}
	return nil
}

// attackProgressSection renders the ATTACK rows of `simctl top` from the
// progress files campaigns maintain via -progress.
func attackProgressSection(w io.Writer, paths []string) {
	fmt.Fprintf(w, "%-14s %-8s %6s %9s %8s %9s %12s  %s\n",
		"ATTACK", "SEARCH", "SEED", "GEN", "EVALS", "BREAKING", "BEST", "KEY")
	for _, path := range paths {
		p, err := attack.ReadProgress(path)
		if err != nil {
			fmt.Fprintf(w, "%-14s %s\n", trimProgressName(path), err)
			continue
		}
		gen := fmt.Sprintf("%d/%d", p.Gen, p.Generations)
		if p.Done {
			gen += " done"
		}
		best := "-"
		if p.BestKey != "" {
			best = fmt.Sprintf("%.4f", p.BestScore)
		}
		fmt.Fprintf(w, "%-14s %-8s %6d %9s %8d %9d %12s  %s\n",
			p.Objective, p.Searcher, p.Seed, gen, p.Evals, p.Breaking, best, p.BestKey)
	}
}

func trimProgressName(path string) string {
	base := path
	if i := strings.LastIndexByte(base, '/'); i >= 0 {
		base = base[i+1:]
	}
	return strings.TrimSuffix(base, ".json")
}
