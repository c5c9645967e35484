package attack

import (
	"context"
	"fmt"
	"math"
	"strconv"

	"involution/internal/cluster"
	"involution/internal/fault"
	"involution/internal/netlist"
	"involution/internal/server/api"
	"involution/internal/signal"
)

// outcomeRank orders fault outcomes by severity for score shaping.
func outcomeRank(o fault.Outcome) int {
	switch o {
	case fault.Masked:
		return 0
	case fault.Filtered:
		return 1
	case fault.Propagated:
		return 2
	case fault.Latched:
		return 3
	default:
		return -1
	}
}

// ClassFlip searches the SET placement space of one fault site for the
// weakest transient that flips the campaign classification to Propagated
// or Latched — the same question a fault.Campaign answers by exhaustive
// replay, but optimized: where does the narrowest, worst-timed pulse
// escape the circuit's masking? Candidates are (strike time, pulse width)
// pairs; the budget bounds the width (the physical "strength" of the
// strike), and narrower escaping pulses score higher. Instrumentation and
// classification reuse the campaign machinery exactly
// (cluster.InstrumentOverlay, fault.Classify), so a breaking candidate is
// bit-for-bit a scenario a fault.Campaign would classify the same way.
type ClassFlip struct {
	doc     *netlist.Document
	inputs  map[string]signal.Signal
	site    fault.Site
	outputs []string
	probes  []string
	base    map[string]signal.Signal
	space   Space
	horizon float64
	events  int
}

// NewClassFlip builds the objective for one site of the document. The
// baseline (fault-free) run is evaluated once through eval — a cached,
// content-addressed job like every candidate. maxWidth bounds the SET
// width budget (≤ 0: 2 time units); horizon/maxEvents size the
// simulations (≤ 0: 60 / 1<<20).
func NewClassFlip(ctx context.Context, eval Evaluator, doc *netlist.Document, inputs map[string]signal.Signal, site fault.Site, probes []string, maxWidth, horizon float64, maxEvents int) (*ClassFlip, error) {
	if horizon <= 0 {
		horizon = 60
	}
	if maxEvents <= 0 {
		maxEvents = 1 << 20
	}
	if maxWidth <= 0 {
		maxWidth = 2
	}
	var outputs []string
	for _, st := range doc.Stmts {
		if st.Fields[0] == "output" && len(st.Fields) == 2 {
			outputs = append(outputs, st.Fields[1])
		}
	}
	if len(outputs) == 0 {
		return nil, fmt.Errorf("attack: document %q has no outputs", doc.Name)
	}
	o := &ClassFlip{
		doc:     doc,
		inputs:  inputs,
		site:    site,
		outputs: outputs,
		probes:  probes,
		horizon: horizon,
		events:  maxEvents,
		space: Space{
			Budget: maxWidth,
			Dims: []Dim{
				{Name: "at", Min: 0, Max: math.Floor(horizon*0.8/0.25) * 0.25, Step: 0.25},
				{Name: "width", Min: 0.05, Max: maxWidth, Step: 0.05, Cost: 1},
			},
		},
	}
	base, err := o.baseline(ctx, eval)
	if err != nil {
		return nil, err
	}
	o.base = base
	return o, nil
}

// baseline evaluates the fault-free document instrumented with a
// never-firing control pulse, so baseline and candidate signals are
// recorded through identical circuit structure and the comparison
// isolates the strike itself.
func (o *ClassFlip) baseline(ctx context.Context, eval Evaluator) (map[string]signal.Signal, error) {
	// A SET whose pulse starts beyond the horizon never fires: the
	// instrumented circuit is structurally identical to every candidate's
	// but electrically the fault-free design.
	req, err := o.request(o.horizon+1, 0.05)
	if err != nil {
		return nil, err
	}
	rec, err := eval.RunOne(ctx, req)
	if err != nil {
		return nil, fmt.Errorf("attack: baseline run: %w", err)
	}
	p, err := payloadOf(rec)
	if err != nil {
		return nil, err
	}
	if p.Status != api.StatusCompleted {
		return nil, fmt.Errorf("attack: baseline run aborted: %s %s", p.Class, p.Error)
	}
	return o.parseSignals(p)
}

// request renders one (at, width) candidate as an instrumented job.
func (o *ClassFlip) request(at, width float64) (api.Request, error) {
	ov, err := fault.SET{At: at, Width: width}.Overlay(o.site, fault.ScenarioRand(1))
	if err != nil {
		return api.Request{}, err
	}
	doc, _, err := cluster.InstrumentOverlay(o.doc, o.inputs, o.site, ov, o.probes)
	if err != nil {
		return api.Request{}, err
	}
	stim := make(map[string]string, len(o.inputs)+1)
	for name, sig := range o.inputs {
		stim[name] = sig.String()
	}
	stim[fault.CtlInput] = ov.Ctl.String()
	return api.Request{
		Netlist:   doc.String(),
		Inputs:    stim,
		Horizon:   o.horizon,
		MaxEvents: o.events,
	}, nil
}

// parseSignals reads the payload's outputs back under original node names
// (probe taps unmapped).
func (o *ClassFlip) parseSignals(p api.ResultPayload) (map[string]signal.Signal, error) {
	sigs := make(map[string]signal.Signal, len(p.Outputs))
	for name, text := range p.Outputs {
		sig, err := signal.Parse(text)
		if err != nil {
			return nil, fmt.Errorf("attack: bad signal %q: %w", name, err)
		}
		if probe, ok := cutTap(name); ok {
			name = probe
		}
		sigs[name] = sig
	}
	return sigs, nil
}

// cutTap strips the cluster probe-tap prefix.
func cutTap(name string) (string, bool) {
	const p = "__tap_"
	if len(name) > len(p) && name[:len(p)] == p {
		return name[len(p):], true
	}
	return "", false
}

func (o *ClassFlip) Name() string { return "class-flip" }

func (o *ClassFlip) Space() Space { return o.space }

func (o *ClassFlip) Request(x []float64) (api.Request, error) {
	if len(x) != len(o.space.Dims) {
		return api.Request{}, fmt.Errorf("attack: class-flip wants %d coordinates, got %d", len(o.space.Dims), len(x))
	}
	return o.request(x[0], x[1])
}

func (o *ClassFlip) Score(x []float64, rec api.Record) (Eval, error) {
	p, err := payloadOf(rec)
	if err != nil {
		return Eval{}, err
	}
	if p.Status != api.StatusCompleted {
		return Eval{Score: AbortScore, Detail: "abort:" + p.Class}, nil
	}
	sigs, err := o.parseSignals(p)
	if err != nil {
		return Eval{}, err
	}
	out := fault.Classify(o.base, sigs, o.outputs, o.probes)
	rank := outcomeRank(out)
	// Escaped faults (Propagated, Latched) flip the classification; among
	// them the *narrowest* pulse is the strongest finding, so width is a
	// penalty, scaled to never outweigh a rank step.
	return Eval{
		Score:    float64(rank) - x[1]/(2*o.space.Budget),
		Breaking: rank >= outcomeRank(fault.Propagated),
		Detail:   out.String(),
	}, nil
}

func (o *ClassFlip) Describe(x []float64) string {
	return fmt.Sprintf("SET(at=%s width=%s) on %s",
		strconv.FormatFloat(x[0], 'g', -1, 64), strconv.FormatFloat(x[1], 'g', -1, 64), o.site.Label())
}
