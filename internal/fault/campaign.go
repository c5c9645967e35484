package fault

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"strings"
	"time"

	"involution/internal/circuit"
	"involution/internal/obs"
	"involution/internal/signal"
	"involution/internal/sim"
)

// Outcome classifies one fault scenario against the fault-free baseline.
type Outcome int

// Scenario outcomes.
const (
	// Aborted: the run did not complete (event budget, deadline, panic, bad
	// event time, …); the row carries the abort class and partial stats.
	Aborted Outcome = iota
	// Masked: every node signal matches the baseline — the fault was
	// logically absorbed before reaching any probe.
	Masked
	// Filtered: the outputs match the baseline but some probe node differs —
	// the fault propagated internally and was removed before the outputs
	// (the SPF behavior).
	Filtered
	// Propagated: the outputs differ transiently but end at the baseline
	// values.
	Propagated
	// Latched: an output ends at a different value than the baseline — the
	// fault was captured as state.
	Latched
)

// String names the outcome.
func (o Outcome) String() string {
	switch o {
	case Aborted:
		return "aborted"
	case Masked:
		return "masked"
	case Filtered:
		return "filtered"
	case Propagated:
		return "propagated"
	case Latched:
		return "latched"
	default:
		return fmt.Sprintf("Outcome(%d)", int(o))
	}
}

// Outcomes lists all outcomes in report order.
var Outcomes = []Outcome{Masked, Filtered, Propagated, Latched, Aborted}

// Scenario is one (site, model) pair of a campaign grid.
type Scenario struct {
	ID    int
	Site  Site
	Model Model
}

// Grid crosses sites with fault models, skipping pairs the model does not
// apply to (wrapper faults on zero-delay edges), and numbers the scenarios.
func Grid(sites []Site, models []Model) []Scenario {
	var out []Scenario
	for _, m := range models {
		for _, s := range sites {
			if !m.AppliesTo(s) {
				continue
			}
			out = append(out, Scenario{ID: len(out), Site: s, Model: m})
		}
	}
	return out
}

// Campaign sweeps fault scenarios over one circuit and stimulus set. Every
// scenario runs with the campaign's event budget and wall-clock deadline
// and with panic isolation, so a single pathological fault cannot kill the
// sweep: it is reported as aborted with partial statistics instead.
type Campaign struct {
	// Circuit is the fault-free circuit; it is never mutated.
	Circuit *circuit.Circuit
	// Inputs is the stimulus set applied to every scenario.
	Inputs map[string]signal.Signal
	// Horizon bounds simulated time per run.
	Horizon float64
	// MaxEvents caps events per run (0: the simulator default).
	MaxEvents int
	// Deadline bounds wall-clock time per run (0: none).
	Deadline time.Duration
	// Seed derives every scenario's rng: scenario i uses a rand.Rand seeded
	// from (Seed, i) only, so campaigns are reproducible run-to-run and
	// independent of scenario execution order.
	Seed int64
	// Probes are the node names compared to distinguish masked from
	// filtered scenarios. Empty: all gate nodes of the circuit.
	Probes []string
}

// Row is one scenario's result. It deliberately excludes wall-clock fields
// so reports for a fixed seed are byte-identical across runs.
type Row struct {
	ID      int    `json:"id"`
	Site    string `json:"site"`
	Model   string `json:"model"`
	Outcome string `json:"outcome"`
	// Abort is the sim abort class for aborted rows ("budget", "deadline",
	// "panic", "bad-time", …; "instrument" when injection itself failed).
	// For retried scenarios it is the final disposition: the class of the
	// last attempt, or empty when a retry completed the run.
	Abort string `json:"abort,omitempty"`
	// Attempts counts how many times the scenario ran (1 + retries granted
	// by the engine's adaptive retry policy; always 1 for serial runs).
	Attempts  int   `json:"attempts"`
	Scheduled int64 `json:"scheduled"`
	Delivered int64 `json:"delivered"`
	Canceled  int64 `json:"canceled"`
}

// Report is the outcome of a campaign.
type Report struct {
	Circuit   string
	Seed      int64
	Horizon   float64
	Scenarios int
	Rows      []Row
	// Counts maps Outcome.String() to the number of rows with that outcome.
	Counts map[string]int
}

// AbortInstrument is the Row.Abort class for scenarios whose fault could
// not be injected at all (invalid parameters or site).
const AbortInstrument = "instrument"

// Run executes the scenarios serially and classifies each against a
// baseline run of the unmodified circuit. The baseline itself must
// complete; scenario failures of any kind are contained in their rows.
//
// Run is the single-worker, no-retry reference execution; it delegates to
// the resilient engine (see engine.go) with Workers = 1, whose reports are
// byte-identical to any worker count for a fixed seed.
func (c *Campaign) Run(scenarios []Scenario) (*Report, error) {
	eng := &Engine{Campaign: c, Opts: Options{Workers: 1}}
	return eng.Run(context.Background(), scenarios)
}

// probeNodes resolves the campaign's probe set (all gate nodes when unset).
func (c *Campaign) probeNodes() []string {
	if len(c.Probes) > 0 {
		return c.Probes
	}
	var probes []string
	for _, n := range c.Circuit.Nodes() {
		if n.Kind == circuit.KindGate {
			probes = append(probes, n.Name)
		}
	}
	return probes
}

// runScenario executes one scenario attempt with panic isolation: a panic
// anywhere in instrumentation or simulation yields an aborted row, never a
// crash. All scenario randomness derives from seed, so an attempt is
// reproducible and independent of execution order.
func (c *Campaign) runScenario(sc Scenario, seed int64, opts sim.Options, base *sim.Result, outputs, probes []string) (row Row) {
	row = Row{ID: sc.ID, Site: sc.Site.Label(), Model: sc.Model.String()}
	defer func() {
		if r := recover(); r != nil {
			row.Outcome = Aborted.String()
			row.Abort = string(sim.ClassPanic)
		}
	}()
	fc, fin, err := sc.Model.Instrument(c.Circuit, sc.Site, c.Inputs, ScenarioRand(seed))
	if err != nil {
		row.Outcome = Aborted.String()
		row.Abort = AbortInstrument
		return row
	}
	res, err := sim.Run(fc, fin, opts)
	if err != nil {
		row.Outcome = Aborted.String()
		var ab *sim.AbortError
		if errors.As(err, &ab) {
			row.Abort = string(ab.Class())
			row.Scheduled = ab.Stats.Scheduled
			row.Delivered = ab.Stats.Delivered
			row.Canceled = ab.Stats.Canceled
		} else {
			row.Abort = string(sim.ClassOther)
		}
		return row
	}
	row.Scheduled = res.Stats.Scheduled
	row.Delivered = res.Stats.Delivered
	row.Canceled = res.Stats.Canceled
	row.Outcome = Classify(base.Signals, res.Signals, outputs, probes).String()
	return row
}

// ScenarioRand returns the rng of one scenario attempt: the stream of
// rand.New(rand.NewSource(seed)), with the source seeded on its first
// draw. Seeding a source costs ~8 µs, and most fault models (a SET
// without jitter, stuck-at, the wrapper faults) never draw, so they never
// pay it. The local and remote scenario paths both draw from it, so a
// scenario is the same experiment wherever it runs.
func ScenarioRand(seed int64) *rand.Rand {
	return rand.New(&lazySource{seed: seed})
}

// lazySource is a rand.Source64 that defers rand.NewSource to its first
// draw. Not safe for concurrent use, like the source it wraps.
type lazySource struct {
	seed int64
	src  rand.Source64 // nil until the first draw
}

func (l *lazySource) source() rand.Source64 {
	if l.src == nil {
		l.src = rand.NewSource(l.seed).(rand.Source64)
	}
	return l.src
}

func (l *lazySource) Int63() int64   { return l.source().Int63() }
func (l *lazySource) Uint64() uint64 { return l.source().Uint64() }

// Seed reseeds the stream, again deferring the work to the next draw.
func (l *lazySource) Seed(seed int64) { l.seed, l.src = seed, nil }

// scenarioSeed mixes the campaign seed with the scenario id (splitmix-style
// golden-ratio stride) so nearby ids get unrelated streams.
func scenarioSeed(seed int64, id int) int64 {
	x := uint64(seed) + uint64(id+1)*0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	return int64(x)
}

// Classify compares a completed fault run's recorded signals against the
// baseline's. It works on plain signal maps so remote runs — which return
// signals without a local sim.Result — classify through the same code, and
// so other subsystems (attack-objective scoring) share the campaign's
// outcome taxonomy exactly.
func Classify(base, res map[string]signal.Signal, outputs, probes []string) Outcome {
	outsEqual := true
	finalsEqual := true
	for _, name := range outputs {
		b, f := base[name], res[name]
		if !sigEqual(b, f) {
			outsEqual = false
		}
		if b.Final() != f.Final() {
			finalsEqual = false
		}
	}
	if !outsEqual {
		if !finalsEqual {
			return Latched
		}
		return Propagated
	}
	for _, name := range probes {
		if !sigEqual(base[name], res[name]) {
			return Filtered
		}
	}
	return Masked
}

// sigEqual reports exact equality of two recorded signals.
func sigEqual(a, b signal.Signal) bool {
	if a.Initial() != b.Initial() || a.Len() != b.Len() {
		return false
	}
	for i := 0; i < a.Len(); i++ {
		if a.Transition(i) != b.Transition(i) {
			return false
		}
	}
	return true
}

// WriteCSV emits one row per scenario. The output is deterministic for a
// fixed seed (no wall-clock fields).
func (r *Report) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "id,site,model,outcome,abort,attempts,scheduled,delivered,canceled"); err != nil {
		return err
	}
	for _, row := range r.Rows {
		_, err := fmt.Fprintf(w, "%d,%s,%s,%s,%s,%d,%d,%d,%d\n",
			row.ID, csvEscape(row.Site), csvEscape(row.Model), row.Outcome, row.Abort,
			row.Attempts, row.Scheduled, row.Delivered, row.Canceled)
		if err != nil {
			return err
		}
	}
	return nil
}

// csvEscape quotes a field if it contains a comma or quote.
func csvEscape(s string) string {
	if !strings.ContainsAny(s, ",\"") {
		return s
	}
	return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
}

// WriteJSONL emits one JSON object per scenario row.
func (r *Report) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, row := range r.Rows {
		if err := enc.Encode(row); err != nil {
			return err
		}
	}
	return nil
}

// Format renders the campaign summary as a table.
func (r *Report) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "fault campaign: circuit %q, %d scenarios, seed %d, horizon %g\n",
		r.Circuit, r.Scenarios, r.Seed, r.Horizon)
	for _, o := range Outcomes {
		fmt.Fprintf(&b, "  %-12s %d\n", o.String(), r.Counts[o.String()])
	}
	aborts := make(map[string]int)
	for _, row := range r.Rows {
		if row.Abort != "" {
			aborts[row.Abort]++
		}
	}
	if len(aborts) > 0 {
		classes := make([]string, 0, len(aborts))
		for k := range aborts {
			classes = append(classes, k)
		}
		sort.Strings(classes)
		b.WriteString("  abort classes:")
		for _, k := range classes {
			fmt.Fprintf(&b, " %s=%d", k, aborts[k])
		}
		b.WriteString("\n")
	}
	return b.String()
}

// Register publishes the campaign counters into an obs metrics registry.
func (r *Report) Register(reg *obs.Registry) {
	reg.Counter("fault_scenarios_total", "fault scenarios executed").Add(int64(len(r.Rows)))
	for _, o := range Outcomes {
		reg.Counter("fault_outcome_"+o.String()+"_total",
			"fault scenarios classified "+o.String()).Add(int64(r.Counts[o.String()]))
	}
	retries := reg.Counter("fault_retries_total", "scenario re-runs granted by the retry policy")
	recovered := reg.Counter("fault_retried_recovered_total", "retried scenarios that completed on a later attempt")
	attempts := reg.Histogram("fault_attempts", "attempts per scenario (1 + retries)", obs.LinearBuckets(1, 1, 7))
	for _, row := range r.Rows {
		if row.Attempts > 1 {
			retries.Add(int64(row.Attempts - 1))
			if row.Outcome != Aborted.String() {
				recovered.Inc()
			}
		}
		attempts.Observe(float64(row.Attempts))
	}
}
