package attack

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"time"

	"involution/internal/journal"
	"involution/internal/obs"
	"involution/internal/obs/tracing"
	"involution/internal/sched"
	"involution/internal/server/api"
	"involution/internal/splitmix"
)

// Config drives one attack campaign.
type Config struct {
	Objective Objective
	Searcher  Searcher
	Eval      Evaluator

	// Generations and Batch size the search (defaults 8 × 16).
	Generations int
	Batch       int
	// Seed derives every random stream: the generation-g proposal and
	// observation rngs are pure functions of (Seed, g).
	Seed int64
	// Workers bounds concurrent evaluations per generation (default 4).
	Workers int

	// Journal, when non-nil, makes generations durable and — when opened
	// with resume — replays its recovered entries through the searcher
	// before the first live generation.
	Journal *Journal
	// Metrics, when non-nil, receives attack_* counter/gauge updates.
	Metrics *Metrics
	// Tracer, when non-nil, wraps the campaign in an "attack" span with
	// one "generation" child per live generation.
	Tracer *tracing.Tracer
	// Progress, when non-empty, is a JSON file atomically rewritten after
	// every generation — the coordinator-side state `simctl top` renders
	// as its ATTACK section.
	Progress string
}

// Metrics is the attack subsystem's obs instrument bundle.
type Metrics struct {
	Generations *obs.Counter
	Evals       *obs.Counter
	Deduped     *obs.Counter
	Rejected    *obs.Counter
	Breaking    *obs.Counter
	BestScore   *obs.Gauge
}

// NewMetrics registers the attack_* instruments on reg.
func NewMetrics(reg *obs.Registry) *Metrics {
	return &Metrics{
		Generations: reg.Counter("attack_generations_total", "Attack-search generations completed."),
		Evals:       reg.Counter("attack_evals_total", "Attack candidates evaluated (including cache-answered)."),
		Deduped:     reg.Counter("attack_evals_deduped_total", "Attack evaluations answered without a fresh simulation (run memo, RAM cache or result lake)."),
		Rejected:    reg.Counter("attack_evals_rejected_total", "Attack candidates rejected by the budget without evaluation."),
		Breaking:    reg.Counter("attack_breaking_found_total", "Breaking attack evaluations observed."),
		BestScore:   reg.Gauge("attack_best_score", "Best objective score found so far."),
	}
}

// GenSummary aggregates one generation for reports and progress.
type GenSummary struct {
	Gen       int     `json:"gen"`
	Evals     int     `json:"evals"` // candidates evaluated (fresh + cache-answered)
	Deduped   int     `json:"deduped"`
	LakeHits  int     `json:"lake_hits"`
	Rejected  int     `json:"rejected"`
	Breaking  int     `json:"breaking"`
	BestKey   string  `json:"best_key,omitempty"`
	BestScore float64 `json:"best_score"`
}

// Result is the campaign's outcome.
type Result struct {
	Objective string       `json:"objective"`
	Searcher  string       `json:"searcher"`
	Seed      int64        `json:"seed"`
	Batch     int          `json:"batch"`
	Gens      []GenSummary `json:"gens"`
	Best      Scored       `json:"best"`
	BestGen   int          `json:"best_gen"` // -1: nothing evaluable
	// Top holds the strongest distinct breaking attacks (by key), best
	// first, capped at topAttacks — the report's "best-found attacks" list.
	Top      []Scored `json:"top,omitempty"`
	Evals    int      `json:"evals"`
	Deduped  int      `json:"deduped"`
	LakeHits int      `json:"lake_hits"`
	Rejected int      `json:"rejected"`
	Breaking int      `json:"breaking"`
	Replayed int      `json:"replayed"` // generations restored from the journal
	// FirstBreakEval is the 1-based ordinal (over evaluated candidates, in
	// proposal order) of the first breaking attack; 0 when none was found.
	FirstBreakEval int `json:"first_break_eval,omitempty"`
}

// Progress is the live state written to Config.Progress after every
// generation; `simctl top` renders one row per progress file.
type Progress struct {
	Objective   string  `json:"objective"`
	Searcher    string  `json:"searcher"`
	Seed        int64   `json:"seed"`
	Gen         int     `json:"gen"` // generations completed
	Generations int     `json:"generations"`
	Evals       int     `json:"evals"`
	Deduped     int     `json:"deduped"`
	Rejected    int     `json:"rejected"`
	Breaking    int     `json:"breaking"`
	BestScore   float64 `json:"best_score"`
	BestKey     string  `json:"best_key,omitempty"`
	BestDetail  string  `json:"best_detail,omitempty"`
	Done        bool    `json:"done"`
	UpdatedMS   int64   `json:"updated_ms"`
}

// ReadProgress loads one campaign progress file (as written atomically to
// Config.Progress).
func ReadProgress(path string) (Progress, error) {
	var p Progress
	raw, err := os.ReadFile(path)
	if err != nil {
		return p, err
	}
	if err := json.Unmarshal(raw, &p); err != nil {
		return p, fmt.Errorf("attack: progress %s: %w", path, err)
	}
	return p, nil
}

// genRng derives the generation's random stream (stream 0: proposals,
// stream 1: observation/acceptance) from the campaign seed with a
// splitmix64 finalizer, so generations and streams are mutually unrelated
// and — crucially for resume — re-derivable.
func genRng(seed int64, gen, stream int) *rand.Rand {
	x := uint64(seed) + (uint64(gen)+1)*splitmix.Gamma + (uint64(stream)+1)*0xD1B54A32D192ED03
	return rand.New(rand.NewSource(int64(splitmix.Mix(x))))
}

// Run executes the campaign: propose → snap/budget-filter → dedup →
// fan out through the evaluator → score → journal → observe, generation
// by generation. Deterministic for a fixed config; evaluator transport
// errors abort the whole campaign (partial result returned alongside the
// error) rather than being folded into the search as fake scores.
func Run(ctx context.Context, cfg Config) (*Result, error) {
	if cfg.Objective == nil || cfg.Searcher == nil || cfg.Eval == nil {
		return nil, fmt.Errorf("attack: config needs Objective, Searcher and Eval")
	}
	if cfg.Generations <= 0 {
		cfg.Generations = 8
	}
	if cfg.Batch <= 0 {
		cfg.Batch = 16
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	space := cfg.Objective.Space()
	res := &Result{
		Objective: cfg.Objective.Name(),
		Searcher:  cfg.Searcher.Name(),
		Seed:      cfg.Seed,
		Batch:     cfg.Batch,
		BestGen:   -1,
		Best:      Scored{Eval: Eval{Score: InfeasibleScore}},
	}

	var root *tracing.Span
	if cfg.Tracer != nil {
		ctx, root = cfg.Tracer.StartSpan(ctx, "attack")
		root.SetAttrs(
			tracing.Str("objective", res.Objective),
			tracing.Str("searcher", res.Searcher),
			tracing.Int("seed", cfg.Seed),
			tracing.Int("generations", int64(cfg.Generations)),
			tracing.Int("batch", int64(cfg.Batch)),
		)
		defer root.End()
	}

	// seen memoizes evaluations across this run's generations, so lattice
	// collisions cost nothing and re-proposals journal the same eval.
	seen := make(map[string]Eval)
	start := 0
	if cfg.Journal != nil {
		for _, e := range cfg.Journal.Entries() {
			if e.Gen != start {
				return nil, fmt.Errorf("attack: journal generations out of order: got %d, want %d", e.Gen, start)
			}
			cfg.Searcher.Observe(space, e.Gen, e.Scored, genRng(cfg.Seed, e.Gen, 1))
			res.fold(e, seen, cfg.Metrics)
			start = e.Gen + 1
		}
		res.Replayed = start
	}

	for gen := start; gen < cfg.Generations; gen++ {
		if err := ctx.Err(); err != nil {
			return res, err
		}
		var sp *tracing.Span
		if cfg.Tracer != nil {
			sp = cfg.Tracer.StartChild(root, "generation")
			sp.SetAttrs(tracing.Int("gen", int64(gen)))
		}
		entry, err := runGeneration(ctx, cfg, space, gen, seen)
		if err != nil {
			if sp != nil {
				sp.SetAbort("error")
				sp.End()
			}
			return res, err
		}
		if cfg.Journal != nil {
			if err := cfg.Journal.Append(entry); err != nil {
				return res, fmt.Errorf("attack: journal append: %w", err)
			}
		}
		cfg.Searcher.Observe(space, gen, entry.Scored, genRng(cfg.Seed, gen, 1))
		sum := res.fold(entry, seen, cfg.Metrics)
		if sp != nil {
			sp.SetAttrs(
				tracing.Int("evals", int64(sum.Evals)),
				tracing.Int("deduped", int64(sum.Deduped)),
				tracing.Int("breaking", int64(sum.Breaking)),
				tracing.Float("best_score", sum.BestScore),
			)
			sp.End()
		}
		res.writeProgress(cfg, false)
	}
	res.writeProgress(cfg, true)
	return res, nil
}

// runGeneration proposes, filters and evaluates one generation, returning
// its journal entry (scored candidates in proposal order).
func runGeneration(ctx context.Context, cfg Config, space Space, gen int, seen map[string]Eval) (GenEntry, error) {
	proposals := cfg.Searcher.Propose(space, gen, cfg.Batch, genRng(cfg.Seed, gen, 0))
	scored := make([]Scored, len(proposals))

	// Partition: rejected / memoized / pending-unique. Within-generation
	// duplicates share a single evaluation; the repeats journal as "memo".
	type pendItem struct {
		x    []float64
		idxs []int
	}
	var order []string
	pending := make(map[string]*pendItem)
	for i, raw := range proposals {
		x := space.Snap(raw)
		key := space.Key(x)
		scored[i] = Scored{X: x, Key: key}
		if !space.Feasible(x) {
			scored[i].Eval = Eval{Score: InfeasibleScore, Detail: "infeasible: over budget"}
			continue
		}
		if ev, ok := seen[key]; ok {
			ev.Dedup = "memo"
			scored[i].Eval = ev
			continue
		}
		if p, ok := pending[key]; ok {
			p.idxs = append(p.idxs, i)
			continue
		}
		pending[key] = &pendItem{x: x, idxs: []int{i}}
		order = append(order, key)
	}

	var (
		mu      sync.Mutex
		evalErr error
	)
	fail := func(err error) {
		mu.Lock()
		if evalErr == nil {
			evalErr = err
		}
		mu.Unlock()
	}
	err := sched.ForEach(ctx, cfg.Workers, len(order), func(j int) {
		p := pending[order[j]]
		req, err := cfg.Objective.Request(p.x)
		if err != nil {
			fail(err)
			return
		}
		rec, err := cfg.Eval.RunOne(ctx, req)
		if err != nil {
			fail(fmt.Errorf("attack: evaluate %s: %w", order[j], err))
			return
		}
		ev, err := cfg.Objective.Score(p.x, rec)
		if err != nil {
			fail(fmt.Errorf("attack: score %s: %w", order[j], err))
			return
		}
		if rec.Cached {
			ev.Dedup = rec.CacheTier
			if ev.Dedup == "" {
				ev.Dedup = api.TierMem
			}
		}
		mu.Lock()
		first := true
		for _, i := range p.idxs {
			e := ev
			if !first {
				e.Dedup = "memo" // within-generation duplicate of the same key
			}
			scored[i].Eval = e
			first = false
		}
		mu.Unlock()
	})
	if evalErr != nil {
		return GenEntry{}, evalErr
	}
	if err != nil {
		return GenEntry{}, err
	}
	for _, s := range scored {
		if s.Eval.Score > InfeasibleScore {
			base := s.Eval
			base.Dedup = "" // memo state is per-run, not part of the eval
			seen[s.Key] = base
		}
	}
	return GenEntry{Gen: gen, Scored: scored}, nil
}

// fold accumulates a (live or replayed) generation into the result and
// metrics, returning the generation's summary.
func (r *Result) fold(e GenEntry, seen map[string]Eval, m *Metrics) GenSummary {
	sum := GenSummary{Gen: e.Gen, BestScore: InfeasibleScore}
	for _, s := range e.Scored {
		if s.Eval.Score <= InfeasibleScore {
			sum.Rejected++
			continue
		}
		base := s.Eval
		base.Dedup = ""
		seen[s.Key] = base
		sum.Evals++
		if s.Eval.Dedup != "" {
			sum.Deduped++
		}
		if s.Eval.Dedup == api.TierLake {
			sum.LakeHits++
		}
		if s.Eval.Breaking {
			sum.Breaking++
			if r.FirstBreakEval == 0 {
				r.FirstBreakEval = r.Evals + sum.Evals
			}
			r.noteTop(s)
		}
		if s.Eval.Score > sum.BestScore {
			sum.BestScore = s.Eval.Score
			sum.BestKey = s.Key
		}
		if s.Eval.Score > r.Best.Eval.Score {
			r.Best = s
			r.BestGen = e.Gen
		}
	}
	r.Gens = append(r.Gens, sum)
	r.Evals += sum.Evals
	r.Deduped += sum.Deduped
	r.LakeHits += sum.LakeHits
	r.Rejected += sum.Rejected
	r.Breaking += sum.Breaking
	if m != nil {
		m.Generations.Inc()
		m.Evals.Add(int64(sum.Evals))
		m.Deduped.Add(int64(sum.Deduped))
		m.Rejected.Add(int64(sum.Rejected))
		m.Breaking.Add(int64(sum.Breaking))
		if r.BestGen >= 0 {
			m.BestScore.Set(r.Best.Eval.Score)
		}
	}
	return sum
}

// topAttacks caps Result.Top.
const topAttacks = 5

// noteTop inserts a breaking candidate into the distinct-by-key top list,
// keeping it sorted best-first (score ties: earlier finding wins).
func (r *Result) noteTop(s Scored) {
	for _, t := range r.Top {
		if t.Key == s.Key {
			return
		}
	}
	at := len(r.Top)
	for i, t := range r.Top {
		if s.Eval.Score > t.Eval.Score {
			at = i
			break
		}
	}
	if at >= topAttacks {
		return
	}
	r.Top = append(r.Top, Scored{})
	copy(r.Top[at+1:], r.Top[at:])
	r.Top[at] = s
	if len(r.Top) > topAttacks {
		r.Top = r.Top[:topAttacks]
	}
}

// writeProgress atomically replaces the progress file, so `simctl top`
// readers never observe a torn JSON document.
func (r *Result) writeProgress(cfg Config, done bool) {
	if cfg.Progress == "" {
		return
	}
	p := Progress{
		Objective:   r.Objective,
		Searcher:    r.Searcher,
		Seed:        r.Seed,
		Gen:         len(r.Gens),
		Generations: cfg.Generations,
		Evals:       r.Evals,
		Deduped:     r.Deduped,
		Rejected:    r.Rejected,
		Breaking:    r.Breaking,
		Done:        done,
		UpdatedMS:   time.Now().UnixMilli(),
	}
	if r.BestGen >= 0 {
		p.BestScore = r.Best.Eval.Score
		p.BestKey = r.Best.Key
		p.BestDetail = r.Best.Eval.Detail
	}
	raw, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return
	}
	// Progress is advisory: a failed write leaves the previous file.
	_ = journal.WriteAtomic(cfg.Progress, append(raw, '\n'))
}
