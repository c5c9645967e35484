package fault

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"

	"involution/internal/journal"
	"involution/internal/obs"
	"involution/internal/obs/tracing"
	"involution/internal/sched"
	"involution/internal/sim"
)

// retryFactor scales the exhausted resource on every retry: the event
// budget for budget aborts, the wall-clock deadline for deadline aborts.
const retryFactor = 2

// Options configures the resilient campaign execution engine.
type Options struct {
	// Workers bounds how many scenarios simulate concurrently (default:
	// runtime.GOMAXPROCS(0)). Reports are emitted in scenario order and are
	// byte-identical for a fixed seed regardless of the worker count.
	Workers int
	// MaxRetries grants each scenario up to this many re-runs when an
	// attempt aborts with a retryable class (budget or deadline; panics
	// and other classes are never retried). Zero disables retry.
	MaxRetries int
	// Checkpoint is the path of the crash-safe journal: every completed
	// row is appended as it finishes (fsyncs coalesced), so a killed
	// campaign can restart from the journal instead of from scratch. Empty
	// disables checkpointing.
	Checkpoint string
	// Resume replays the completed rows recorded in Checkpoint and runs
	// only the remainder. The journal must belong to this exact campaign
	// (circuit, seed, horizon and scenario grid are verified); corruption
	// is rejected with a *journal.Error, never silently merged.
	Resume bool
	// Registry, when non-nil, receives live engine metrics: completed /
	// replayed / retried scenario counters and an attempts histogram.
	Registry *obs.Registry
	// Executor, when non-nil, runs remotable scenarios (overlay faults)
	// somewhere else — e.g. a simd fleet via cluster.CampaignExecutor.
	// Scenarios the executor rejects with ErrNotRemotable (wrapper faults)
	// transparently run locally. The baseline always runs locally.
	Executor Executor
	// Tracer, when non-nil, records one "scenario" span per scenario
	// (covering its whole retry ladder, started when a worker picks it up
	// — queue time is the gap from the campaign root) plus a "baseline"
	// span. Scenario spans ride the context into the Executor, so remote
	// scenarios stitch into the same trace across the cluster hop. Nil
	// disables tracing at zero cost.
	Tracer *tracing.Tracer
}

// ErrInterrupted reports that the engine's context was canceled before
// every scenario completed. The report returned alongside it still carries
// every row that finished (or was replayed) before the interruption, in
// scenario order, so partial results can be flushed and later resumed.
var ErrInterrupted = errors.New("fault: campaign interrupted")

// Engine executes a campaign's scenarios on a bounded worker pool with
// cooperative cancellation, crash-safe checkpointing and adaptive retry.
// The zero Opts value gives a GOMAXPROCS-wide pool with no retry and no
// checkpoint.
//
// Determinism: every attempt's randomness derives from (Campaign.Seed,
// scenario id, attempt) only, and rows are assembled in scenario order, so
// reports are byte-identical across runs, worker counts, and
// kill/resume boundaries. (Deadline aborts are the one inherently
// wall-clock-dependent outcome; campaigns that need bit-stable reports
// should bound runs by event budget rather than deadline.)
type Engine struct {
	Campaign *Campaign
	Opts     Options
}

// engineMetrics holds the live obs instruments. A registry-less engine
// counts into a private registry nobody scrapes, so no call site needs a
// nil check.
type engineMetrics struct {
	completed *obs.Counter
	replayed  *obs.Counter
	retries   *obs.Counter
	attempts  *obs.Histogram
}

func newEngineMetrics(reg *obs.Registry) engineMetrics {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	return engineMetrics{
		completed: reg.Counter("fault_engine_completed_total", "scenarios completed by the engine"),
		replayed:  reg.Counter("fault_engine_replayed_total", "scenarios replayed from a checkpoint journal"),
		retries:   reg.Counter("fault_engine_retries_total", "scenario re-runs granted by the retry policy"),
		attempts:  reg.Histogram("fault_engine_attempts", "attempts per completed scenario", obs.LinearBuckets(1, 1, 7)),
	}
}

// Run executes the scenarios and classifies each against a baseline run of
// the unmodified circuit. The baseline itself must complete; scenario
// failures of any kind are contained in their rows.
//
// Cancellation of ctx drains the pool gracefully: in-flight simulations
// abort at their next event, finished rows are kept (and journaled), and
// Run returns the partial report together with an error wrapping
// ErrInterrupted.
func (e *Engine) Run(ctx context.Context, scenarios []Scenario) (*Report, error) {
	c := e.Campaign
	opts := e.Opts
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	met := newEngineMetrics(opts.Registry)

	// Scenario ids key the checkpoint journal; they must be unambiguous.
	index := make(map[int]int, len(scenarios))
	for i, sc := range scenarios {
		if j, dup := index[sc.ID]; dup {
			return nil, fmt.Errorf("fault: scenarios %d and %d share id %d", j, i, sc.ID)
		}
		index[sc.ID] = i
	}

	simOpts := sim.Options{Horizon: c.Horizon, MaxEvents: c.MaxEvents, Deadline: c.Deadline, Context: ctx}
	outputs := c.Circuit.Outputs()
	probes := c.probeNodes()
	_, baseSp := opts.Tracer.StartSpan(ctx, "baseline")
	base, err := sim.Run(c.Circuit, c.Inputs, recordProbes(simOpts, c.Circuit, probes))
	baseSp.End()
	if err != nil {
		if ctx.Err() != nil {
			return nil, fmt.Errorf("%w during baseline run: %v", ErrInterrupted, err)
		}
		return nil, fmt.Errorf("fault: baseline run failed: %w", err)
	}

	rows := make([]Row, len(scenarios))
	done := make([]bool, len(scenarios))

	var j *journal.Journal
	if opts.Checkpoint != "" {
		var replayed []Row
		j, replayed, err = openJournal(opts.Checkpoint, c.binding(scenarios), opts.Resume, index)
		if err != nil {
			return nil, err
		}
		defer j.Close()
		for _, row := range replayed {
			i := index[row.ID]
			rows[i] = row
			done[i] = true
			met.replayed.Inc()
			met.attempts.Observe(float64(row.Attempts))
		}
	}

	var pending []int
	for i := range scenarios {
		if !done[i] {
			pending = append(pending, i)
		}
	}

	// The bounded fan-out and cooperative drain live in sched.ForEach; the
	// closure owns all result plumbing (rows, journal, metrics).
	var (
		mu   sync.Mutex // guards rows/done and the first journal error
		jerr error
	)
	sched.ForEach(ctx, opts.Workers, len(pending), func(k int) {
		i := pending[k]
		// The scenario span starts when a worker picks the scenario up, so
		// summing scenario-span durations measures engine busy time — the
		// numerator of parallel efficiency.
		sctx, sp := opts.Tracer.StartSpan(ctx, "scenario")
		sp.SetAttrs(
			tracing.Int("id", int64(scenarios[i].ID)),
			tracing.Str("site", scenarios[i].Site.Label()),
			tracing.Str("model", scenarios[i].Model.String()),
		)
		row := e.runAttempts(sctx, opts, scenarios[i], simOpts, base, outputs, probes, met)
		sp.SetAttrs(tracing.Int("attempts", int64(row.Attempts)), tracing.Str("outcome", row.Outcome))
		if row.Abort != "" {
			sp.SetAbort(row.Abort)
		}
		sp.End()
		if sim.Class(row.Abort) == sim.ClassCanceled {
			// The attempt was cut short by cancellation, not by the
			// scenario itself: leave the slot unfinished so a
			// resumed campaign re-runs it.
			return
		}
		met.completed.Inc()
		met.attempts.Observe(float64(row.Attempts))
		mu.Lock()
		rows[i] = row
		done[i] = true
		if j != nil && jerr == nil {
			jerr = j.Append(row)
		}
		mu.Unlock()
	})
	if jerr != nil {
		return nil, fmt.Errorf("fault: checkpoint journal: %w", jerr)
	}

	rep := &Report{
		Circuit:   c.Circuit.Name,
		Seed:      c.Seed,
		Horizon:   c.Horizon,
		Scenarios: len(scenarios),
		Counts:    make(map[string]int),
	}
	completed := 0
	for i := range scenarios {
		if !done[i] {
			continue
		}
		rep.Rows = append(rep.Rows, rows[i])
		rep.Counts[rows[i].Outcome]++
		completed++
	}
	if completed < len(scenarios) && ctx.Err() != nil {
		return rep, fmt.Errorf("%w after %d/%d scenarios: %v", ErrInterrupted, completed, len(scenarios), ctx.Err())
	}
	return rep, nil
}

// runAttempts runs one scenario through the adaptive retry ladder. Budget
// aborts replay the identical experiment (same attempt seed) under an
// escalated event budget, so a scenario that completes on a retry
// classifies exactly as a run that started with that budget. Deadline
// aborts are wall-clock flukes without a classification to preserve; they
// re-run with a fresh per-attempt seed so randomness-consuming models do
// not re-hit a pathological sample. Panic and all other classes are
// terminal on the first attempt.
func (e *Engine) runAttempts(ctx context.Context, eopts Options, sc Scenario, opts sim.Options, base *sim.Result, outputs, probes []string, met engineMetrics) Row {
	budget := opts.MaxEvents
	if budget == 0 {
		budget = sim.DefaultMaxEvents
	}
	deadline := opts.Deadline
	seed := scenarioSeed(e.Campaign.Seed, sc.ID)
	var row Row
	var lastClass sim.Class
	sched.Ladder{MaxRetries: eopts.MaxRetries}.Run(ctx, func(attempt int) sched.Verdict {
		if attempt > 0 {
			// A retry was granted: escalate the resource the previous
			// attempt exhausted before re-running.
			met.retries.Inc()
			switch lastClass {
			case sim.ClassBudget:
				budget *= retryFactor
			case sim.ClassDeadline:
				if deadline > 0 {
					deadline *= retryFactor
				}
				seed = scenarioSeed(scenarioSeed(e.Campaign.Seed, sc.ID), attempt)
			}
		}
		aopts := opts
		aopts.MaxEvents = budget
		aopts.Deadline = deadline
		row = e.Campaign.runScenarioWith(ctx, eopts.Executor, sc, seed, aopts, base, outputs, probes)
		row.Attempts = attempt + 1
		lastClass = sim.Class(row.Abort)
		retryable := lastClass == sim.ClassBudget || lastClass == sim.ClassDeadline
		if row.Outcome != Aborted.String() || !retryable {
			return sched.Done
		}
		return sched.Retry
	})
	return row
}

// binding captures the identity a checkpoint journal must match before its
// rows may be merged into this campaign.
func (c *Campaign) binding(scenarios []Scenario) journalHeader {
	return journalHeader{
		Kind:      journalKind,
		Version:   journalVersion,
		Circuit:   c.Circuit.Name,
		Seed:      c.Seed,
		Horizon:   c.Horizon,
		Scenarios: len(scenarios),
		Grid:      gridHash(scenarios),
	}
}
