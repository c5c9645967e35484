package attack

import (
	"encoding/json"
	"fmt"
	"strconv"

	"involution/internal/adversary"
	"involution/internal/core"
	"involution/internal/delay"
	"involution/internal/experiments"
	"involution/internal/netlist"
	"involution/internal/server/api"
	"involution/internal/signal"
	"involution/internal/spf"
)

// tapOr mirrors the SPF loop node through a zero-delay channel into an
// extra output port, so remote evaluations return the storage-loop trace
// for score shaping (remote nodes only return output signals). The name
// follows internal/cluster's probe-tap convention.
const tapOr = "__tap_" + spf.NodeOr

// Defaults for the SPF attack simulations. The horizon is long enough for
// a held oscillation to reach the buffer threshold several times over
// (the reference buffer first passes a sustained duty-0.95 train after
// ≈160 time units); the event cap contains runaway oscillations.
const (
	spfHorizon   = 600
	spfMaxEvents = 1 << 20
)

// spfRef bundles the reference-parametrized Fig. 5 SPF system the attack
// objectives are defined against: the loop pair for constraint-(C) math
// and the Lemma 10/11-dimensioned buffer the attack must defeat.
type spfRef struct {
	pair delay.Pair
	sys  *spf.System
}

func newSPFRef() (*spfRef, error) {
	pair, err := delay.Exp(experiments.ReferenceExp)
	if err != nil {
		return nil, err
	}
	loop, err := core.New(pair, experiments.ReferenceEta)
	if err != nil {
		return nil, err
	}
	sys, err := spf.NewSystem(loop)
	if err != nil {
		return nil, err
	}
	// The objectives render adversary=hold into their netlists; fail fast
	// here if the registry ever drops or renames it.
	if err := adversary.Validate(adversary.Spec{Name: "hold", Params: map[string]float64{"tr": 0, "tf": 0}}); err != nil {
		return nil, err
	}
	return &spfRef{pair: pair, sys: sys}, nil
}

// doc renders the Fig. 5 SPF circuit with the loop channel's η interval
// widened to the candidate's (η⁺, η⁻) and driven by the hold feedback
// adversary (see adversary.Hold), keeping the buffer at its reference
// dimensioning — the defense stays fixed while the attack moves.
func (r *spfRef) doc(etaPlus, etaMinus, tr, tf float64) *netlist.Document {
	g := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	return experiments.SPFDocument("spf-attack", adversary.Eta{Plus: etaPlus, Minus: etaMinus},
		[]string{"adversary=hold", "tr=" + g(tr), "tf=" + g(tf)}, r.sys.Buffer, tapOr)
}

func (r *spfRef) request(etaPlus, etaMinus, tr, tf, d0 float64) api.Request {
	g := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	return api.Request{
		Netlist:   r.doc(etaPlus, etaMinus, tr, tf).String(),
		Inputs:    map[string]string{spf.NodeIn: "0 r@0 f@" + g(d0)},
		Horizon:   spfHorizon,
		MaxEvents: spfMaxEvents,
		// No DeadlineMS: wall-clock deadlines are nondeterministic across
		// machines and would poison cached scores.
	}
}

// constraint places (η⁺, η⁻) against constraint (C) for the reference pair.
func (r *spfRef) constraint(etaPlus, etaMinus float64) Constraint {
	boundary, err := core.MaxEtaMinus(r.pair, etaPlus)
	if err != nil {
		boundary = 0
	}
	slack := boundary - etaMinus
	return Constraint{
		EtaPlus:       etaPlus,
		EtaMinus:      etaMinus,
		BoundaryMinus: boundary,
		Slack:         slack,
		Violated:      slack <= 0,
	}
}

// payloadOf decodes a record's result payload.
func payloadOf(rec api.Record) (api.ResultPayload, error) {
	var p api.ResultPayload
	if err := json.Unmarshal(rec.Result, &p); err != nil {
		return p, fmt.Errorf("attack: unparsable result payload: %w", err)
	}
	return p, nil
}

// outSignals parses the output and loop-tap signals of a completed run.
func outSignals(p api.ResultPayload) (out, tap signal.Signal, err error) {
	if out, err = signal.Parse(p.Outputs[spf.NodeOut]); err != nil {
		return out, tap, fmt.Errorf("attack: bad output signal: %w", err)
	}
	if tap, err = signal.Parse(p.Outputs[tapOr]); err != nil {
		return out, tap, fmt.Errorf("attack: bad loop-tap signal: %w", err)
	}
	return out, tap, nil
}

// loopShape summarizes the storage-loop trace for score shaping: how far
// into the horizon the loop kept oscillating, and its mean duty cycle.
func loopShape(tap signal.Signal, horizon float64) (sustain, duty float64) {
	if tap.Len() == 0 {
		return 0, 0
	}
	sustain = tap.Transition(tap.Len()-1).At / horizon
	ts, err := signal.Analyze(tap)
	if err != nil || len(ts.DutyCycles) == 0 {
		return sustain, 0
	}
	for _, g := range ts.DutyCycles {
		duty += g
	}
	duty /= float64(len(ts.DutyCycles))
	return sustain, duty
}

// DefeatSPF is the headline objective: find an η schedule — an (η⁺, η⁻)
// interval plus hold-adversary targets — that makes the Fig. 5 SPF circuit
// emit a non-clean output (a glitch train instead of "stay 0 or resolve to
// 1 once"). Under constraint (C) this is impossible (Theorem 9 plus the
// Lemma 10/11 buffer dimensioning), so every breaking candidate certifies
// an η interval outside the faithful region; the budget bounds η⁺+η⁻, and
// lower-cost breaks score higher — the search hunts the *minimal* defeating
// perturbation.
type DefeatSPF struct {
	ref   *spfRef
	space Space
}

// NewDefeatSPF builds the objective. budget bounds η⁺+η⁻ (≤ 0: the default
// 0.75, comfortably past the reference boundary η⁺+η⁻ ≈ 0.22 but well
// under the η⁻ causality cap δ↓(0) ≈ 0.73).
func NewDefeatSPF(budget float64) (*DefeatSPF, error) {
	ref, err := newSPFRef()
	if err != nil {
		return nil, err
	}
	if budget <= 0 {
		budget = 0.75
	}
	return &DefeatSPF{
		ref: ref,
		space: Space{
			Budget: budget,
			Dims: []Dim{
				{Name: "eta+", Min: 0, Max: 0.6, Step: 0.02, Cost: 1},
				// η⁻ stays under the causality cap η⁻ < δ↓(0) ≈ 0.733
				// enforced by channel.NewInvolution.
				{Name: "eta-", Min: 0, Max: 0.64, Step: 0.02, Cost: 1},
				{Name: "tr", Min: -0.8, Max: 0.2, Step: 0.05},
				{Name: "tf", Min: -0.5, Max: 0.5, Step: 0.05},
				{Name: "d0", Min: 0.6, Max: 1.4, Step: 0.1},
			},
		},
	}, nil
}

// NewDefeatSPFAt builds the objective with η⁺ frozen at etaPlus — the
// per-band variant behind the worst-case η table (`figures -fig attack`).
// At fixed η⁺ the cost-penalized score makes the best breaking candidate
// the *minimal* defeating η⁻, so a sweep over η⁺ maps the empirical
// breaking band against the constraint-(C) boundary.
func NewDefeatSPFAt(etaPlus, budget float64) (*DefeatSPF, error) {
	o, err := NewDefeatSPF(budget)
	if err != nil {
		return nil, err
	}
	o.space.Dims[0] = Dim{Name: "eta+", Min: etaPlus, Max: etaPlus, Cost: 1}
	return o, nil
}

func (*DefeatSPF) Name() string { return "defeat-spf" }

func (o *DefeatSPF) Space() Space { return o.space }

func (o *DefeatSPF) Request(x []float64) (api.Request, error) {
	if len(x) != len(o.space.Dims) {
		return api.Request{}, fmt.Errorf("attack: defeat-spf wants %d coordinates, got %d", len(o.space.Dims), len(x))
	}
	return o.ref.request(x[0], x[1], x[2], x[3], x[4]), nil
}

func (o *DefeatSPF) Score(x []float64, rec api.Record) (Eval, error) {
	p, err := payloadOf(rec)
	if err != nil {
		return Eval{}, err
	}
	if p.Status != api.StatusCompleted {
		return Eval{Score: AbortScore, Detail: "abort:" + p.Class}, nil
	}
	out, tap, err := outSignals(p)
	if err != nil {
		return Eval{}, err
	}
	// SPF's contract: the output stays 0 or makes one clean rising
	// transition. Anything else — a glitch pulse, an oscillating train —
	// is a defeat.
	defeated := !out.IsZero() && !(out.Len() == 1 && out.Transition(0).To == signal.High)
	if defeated {
		// Cheaper breaking attacks score higher: the search minimizes the
		// η perturbation among defeats.
		return Eval{
			Score:    10 - o.space.Cost(x),
			Breaking: true,
			Detail:   fmt.Sprintf("defeat out.tr=%d", out.Len()),
		}, nil
	}
	// Shaped score toward defeat: sustained loop oscillation first, high
	// duty cycle second (the buffer passes trains with duty ≳ 0.9).
	sustain, duty := loopShape(tap, p.Horizon)
	return Eval{
		Score:  sustain + duty,
		Detail: fmt.Sprintf("sustain=%.3f duty=%.3f", sustain, duty),
	}, nil
}

func (o *DefeatSPF) Describe(x []float64) string {
	return fmt.Sprintf("hold(tr=%g tf=%g) d0=%g %s",
		x[2], x[3], x[4], o.Constraint(x))
}

// Constraint implements ConstraintReporter against the reference pair.
func (o *DefeatSPF) Constraint(x []float64) Constraint {
	return o.ref.constraint(x[0], x[1])
}

// MaxStabilize maximizes the SPF stabilization time *inside* the faithful
// regime: the η interval is pinned to the reference (constraint-(C)
// satisfying) bounds and the search tunes the input pulse length around
// the Theorem 9 metastable band plus the hold adversary's targets. It
// probes how close a legal adversary can push the circuit to the
// unbounded-stabilization boundary; a candidate "breaks" when the loop is
// still oscillating within the spf.Observe stabilization margin
// 4·(P + LockBound) of the horizon.
type MaxStabilize struct {
	ref    *spfRef
	space  Space
	margin float64
}

// NewMaxStabilize builds the objective (no budget: every η here is the
// reference interval, which is legal by construction).
func NewMaxStabilize() (*MaxStabilize, error) {
	ref, err := newSPFRef()
	if err != nil {
		return nil, err
	}
	a := ref.sys.Analysis
	return &MaxStabilize{
		ref:    ref,
		margin: 4 * (a.Period + a.LockBound),
		space: Space{
			Dims: []Dim{
				// The metastable Δ₀ band: CancelBound ≈ 0.846 below which
				// pulses die, LockBound ≈ 1.456 above which the loop locks.
				{Name: "d0", Min: 0.85, Max: 1.45, Step: 0.01},
				{Name: "tr", Min: -0.8, Max: 0.2, Step: 0.1},
				{Name: "tf", Min: -0.5, Max: 0.5, Step: 0.1},
			},
		},
	}, nil
}

func (*MaxStabilize) Name() string { return "max-stabilize" }

func (o *MaxStabilize) Space() Space { return o.space }

func (o *MaxStabilize) Request(x []float64) (api.Request, error) {
	if len(x) != len(o.space.Dims) {
		return api.Request{}, fmt.Errorf("attack: max-stabilize wants %d coordinates, got %d", len(o.space.Dims), len(x))
	}
	eta := experiments.ReferenceEta
	return o.ref.request(eta.Plus, eta.Minus, x[1], x[2], x[0]), nil
}

func (o *MaxStabilize) Score(x []float64, rec api.Record) (Eval, error) {
	p, err := payloadOf(rec)
	if err != nil {
		return Eval{}, err
	}
	if p.Status != api.StatusCompleted {
		return Eval{Score: AbortScore, Detail: "abort:" + p.Class}, nil
	}
	_, tap, err := outSignals(p)
	if err != nil {
		return Eval{}, err
	}
	stab := 0.0
	if tap.Len() > 0 {
		stab = tap.Transition(tap.Len() - 1).At
	}
	return Eval{
		Score:    stab,
		Breaking: p.Horizon-stab < o.margin,
		Detail:   fmt.Sprintf("stab=%.4g", stab),
	}, nil
}

func (o *MaxStabilize) Describe(x []float64) string {
	eta := experiments.ReferenceEta
	return fmt.Sprintf("hold(tr=%g tf=%g) d0=%g %s", x[1], x[2], x[0], o.ref.constraint(eta.Plus, eta.Minus))
}

// Constraint implements ConstraintReporter (always the reference interval).
func (o *MaxStabilize) Constraint([]float64) Constraint {
	eta := experiments.ReferenceEta
	return o.ref.constraint(eta.Plus, eta.Minus)
}
