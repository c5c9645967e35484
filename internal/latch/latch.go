// Package latch implements a one-shot transparent latch on top of the
// η-involution circuit model. The paper notes (after Barros & Johnson,
// IEEE ToC 1983) that a one-shot latch — whose enable input sees a single
// up- and a single down-transition — is implementable from a circuit
// solving SPF and vice versa, so the η-involution model is faithful for
// one-shot latches as well. This package builds the latch as a real
// multi-gate circuit (the "more complex circuits" direction of the paper's
// future work) and exposes the classic setup-time experiment: sweeping the
// data arrival against the closing enable reveals the metastable window,
// while the high-threshold output buffer keeps the external output free of
// runt pulses for every adversary.
//
// Circuit (a standard mux-latch, every gate-to-gate edge a strictly causal
// exp-channel, η-involution noise on the storage feedback):
//
//	q = OR( AND(d, en), AND(fb, ¬en) ),  fb = q through the loop channel
package latch

import (
	"fmt"

	"involution/internal/adversary"
	"involution/internal/channel"
	"involution/internal/circuit"
	"involution/internal/core"
	"involution/internal/delay"
	"involution/internal/gate"
	"involution/internal/signal"
	"involution/internal/sim"
	"involution/internal/spf"
)

// Node names of the built circuit.
const (
	NodeD    = "d"
	NodeEn   = "en"
	NodeNEn  = "nen"
	NodeAnd1 = "and1"
	NodeAnd2 = "and2"
	NodeOr   = "or"
	NodeHT   = "ht"
	NodeQ    = "q"
)

// System is a dimensioned one-shot latch.
type System struct {
	Loop *core.Channel // storage-loop η-involution channel
	// GateFast parametrizes the ¬en → and2 path; GateSlow the and → or
	// paths. GateFast must be faster so the hold path closes before the
	// transparent path opens (hazard avoidance for stable data).
	GateFast delay.ExpParams
	GateSlow delay.ExpParams
	Buffer   delay.ExpParams // high-threshold output buffer
}

// NewSystem dimensions a latch around the given storage-loop channel. The
// buffer is dimensioned like the SPF buffer (Lemmas 10/11) with
// conservative bounds, since the storage loop here contains a gate channel
// in series with the feedback channel.
func NewSystem(loop *core.Channel) (*System, error) {
	a, err := core.Analyze(loop)
	if err != nil {
		return nil, fmt.Errorf("latch: loop channel: %w", err)
	}
	s := &System{
		Loop:     loop,
		GateFast: delay.ExpParams{Tau: 0.2, TP: 0.1, Vth: 0.5},
		GateSlow: delay.ExpParams{Tau: 0.3, TP: 0.3, Vth: 0.5},
	}
	// Series loop: feedback channel + slow gate channel. Conservative
	// bounds: pulses up to the combined saturation delay, duty below the
	// loop's γ̄ padded by the extra series delay.
	slow, err := delay.Exp(s.GateSlow)
	if err != nil {
		return nil, err
	}
	theta := 2 * (a.LockBound + a.Period + slow.UpLimit())
	gammaBound := a.Gamma + 0.5*(1-a.Gamma)
	buf, err := spf.DimensionBuffer(theta, gammaBound)
	if err != nil {
		return nil, err
	}
	s.Buffer = buf
	return s, nil
}

func expModel(p delay.ExpParams) (channel.Model, error) {
	pair, err := delay.Exp(p)
	if err != nil {
		return nil, err
	}
	ch, err := core.New(pair, adversary.Eta{})
	if err != nil {
		return nil, err
	}
	return channel.NewInvolution(ch, nil)
}

// Build constructs the latch circuit with the given adversary factory on
// the storage feedback channel (nil = zero adversary).
func (s *System) Build(newStrategy func() adversary.Strategy) (*circuit.Circuit, error) {
	loopModel, err := channel.NewInvolution(s.Loop, newStrategy)
	if err != nil {
		return nil, err
	}
	fast, err := expModel(s.GateFast)
	if err != nil {
		return nil, err
	}
	slow1, err := expModel(s.GateSlow)
	if err != nil {
		return nil, err
	}
	slow2, err := expModel(s.GateSlow)
	if err != nil {
		return nil, err
	}
	bufModel, err := expModel(s.Buffer)
	if err != nil {
		return nil, err
	}

	c := circuit.New("one-shot-latch")
	steps := []error{
		c.AddInput(NodeD),
		c.AddInput(NodeEn),
		c.AddOutput(NodeQ),
		c.AddGate(NodeNEn, gate.Not(), signal.High),
		c.AddGate(NodeAnd1, gate.And(2), signal.Low),
		c.AddGate(NodeAnd2, gate.And(2), signal.Low),
		c.AddGate(NodeOr, gate.Or(2), signal.Low),
		c.AddGate(NodeHT, gate.Buf(), signal.Low),
		c.Connect(NodeD, NodeAnd1, 0, nil),
		c.Connect(NodeEn, NodeAnd1, 1, nil),
		c.Connect(NodeEn, NodeNEn, 0, nil),
		c.Connect(NodeNEn, NodeAnd2, 1, fast),
		c.Connect(NodeOr, NodeAnd2, 0, loopModel),
		c.Connect(NodeAnd1, NodeOr, 0, slow1),
		c.Connect(NodeAnd2, NodeOr, 1, slow2),
		c.Connect(NodeOr, NodeHT, 0, bufModel),
		c.Connect(NodeHT, NodeQ, 0, nil),
	}
	for _, err := range steps {
		if err != nil {
			return nil, err
		}
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return c, nil
}

// Observation summarizes one capture experiment.
type Observation struct {
	DataAt     float64       // data rising-transition time
	EnWidth    float64       // enable pulse width
	Q          signal.Signal // external output (after the HT buffer)
	Loop       signal.Signal // OR gate output (the storage node)
	Captured   signal.Value  // final value of Q
	LoopPulses int
	SettleTime float64 // last transition time of the storage node
}

// Capture runs the one-shot experiment: enable is a pulse of width enWidth
// at time 0, data rises once at dataAt (never, if dataAt < 0), under the
// given loop adversary.
func (s *System) Capture(dataAt, enWidth float64, newStrategy func() adversary.Strategy, horizon float64) (Observation, error) {
	c, err := s.Build(newStrategy)
	if err != nil {
		return Observation{}, err
	}
	en, err := signal.Pulse(0, enWidth)
	if err != nil {
		return Observation{}, err
	}
	d := signal.Zero()
	if dataAt >= 0 {
		d, err = signal.New(signal.Low, signal.Transition{At: dataAt, To: signal.High})
		if err != nil {
			return Observation{}, err
		}
	}
	res, err := sim.Run(c, map[string]signal.Signal{NodeD: d, NodeEn: en},
		sim.Options{Horizon: horizon, MaxEvents: 1 << 22, Record: []string{NodeOr, NodeQ}})
	if err != nil {
		return Observation{}, err
	}
	loop := res.Signals[NodeOr]
	return Observation{
		DataAt:     dataAt,
		EnWidth:    enWidth,
		Q:          res.Signals[NodeQ],
		Loop:       loop,
		Captured:   res.Signals[NodeQ].Final(),
		LoopPulses: len(loop.Pulses()),
		SettleTime: loop.StabilizationTime(),
	}, nil
}

// CleanOutput reports whether the external output is free of pulses: the
// constant 0 signal or a single rising transition (the latch-level analog
// of condition F4).
func (o Observation) CleanOutput() bool {
	switch o.Q.Len() {
	case 0:
		return true
	case 1:
		return o.Q.Final() == signal.High
	default:
		return false
	}
}
