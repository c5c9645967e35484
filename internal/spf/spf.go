// Package spf implements the Short-Pulse Filtration problem (Definition 2
// of Függer et al., DATE 2018) and the circuit of Fig. 5 that solves its
// unbounded variant with η-involution channels: an OR gate fed back through
// an η-involution channel (the storage loop) followed by a high-threshold
// buffer modeled as an exp-channel.
//
// The package provides the circuit builder, the Lemma 10/11 buffer
// dimensioning, the F1–F4 condition checkers, and the Theorem 9 sweep
// driver used by the benchmarks.
package spf

import (
	"context"
	"errors"
	"fmt"
	"math"

	"involution/internal/adversary"
	"involution/internal/channel"
	"involution/internal/circuit"
	"involution/internal/core"
	"involution/internal/delay"
	"involution/internal/gate"
	"involution/internal/signal"
	"involution/internal/sim"
)

// System bundles the SPF circuit of Fig. 5 with its quantitative analysis.
type System struct {
	Loop     *core.Channel // feedback η-involution channel
	Analysis core.Analysis // Section IV quantities of the loop channel
	Buffer   delay.ExpParams
	// Theta and GammaBound are the Lemma 10/11 dimensioning inputs the
	// buffer was validated against.
	Theta      float64
	GammaBound float64
	// Observer, when non-nil, is attached to every simulation this system
	// launches (RunPulse, Observe, Check) — e.g. a trace.EventTrace sink.
	Observer sim.Observer
	// Context, when non-nil, cancels every simulation this system launches
	// cooperatively (see sim.Options.Context): an interrupted run aborts at
	// its next event with partial statistics instead of running out.
	Context context.Context
}

// NewSystem analyzes the loop channel (which must satisfy constraint (C))
// and dimensions the high-threshold buffer per Lemmas 10/11: pulse trains
// with up-times ≤ Θ and duty cycles ≤ Γ = γ̄(1+ε) must map to zero.
func NewSystem(loop *core.Channel) (*System, error) {
	a, err := core.Analyze(loop)
	if err != nil {
		return nil, err
	}
	// Γ strictly between γ̄ and 1; Θ covers the longest pulse the loop can
	// hand to the buffer before locking (the first pulse can be as long as
	// the lock bound δ↑∞ + η⁺).
	gammaBound := a.Gamma + 0.25*(1-a.Gamma)
	theta := 2 * (a.LockBound + a.Period)
	buf, err := DimensionBuffer(theta, gammaBound)
	if err != nil {
		return nil, err
	}
	return &System{Loop: loop, Analysis: a, Buffer: buf, Theta: theta, GammaBound: gammaBound}, nil
}

// DimensionBuffer returns exp-channel parameters (the high-threshold buffer
// of Lemma 11) such that every pulse train with up-times ≤ theta and duty
// cycles ≤ gammaBound < 1 is mapped to the zero signal. The construction
// places the threshold midway between gammaBound and 1 and grows the RC
// constant until the worst-case train (up-time theta at duty gammaBound)
// and a single pulse of length theta are both verified to cancel.
func DimensionBuffer(theta, gammaBound float64) (delay.ExpParams, error) {
	if !(theta > 0) {
		return delay.ExpParams{}, fmt.Errorf("spf: Θ = %g must be positive", theta)
	}
	if !(gammaBound > 0 && gammaBound < 1) {
		return delay.ExpParams{}, fmt.Errorf("spf: Γ = %g must be in (0,1)", gammaBound)
	}
	vth := (1 + gammaBound) / 2
	period := theta / gammaBound
	for tauC := 4 * theta / (1 - gammaBound); tauC < 1e9*theta; tauC *= 2 {
		p := delay.ExpParams{Tau: tauC, TP: theta, Vth: vth}
		if bufferFilters(p, theta, period) {
			return p, nil
		}
	}
	return delay.ExpParams{}, errors.New("spf: buffer dimensioning failed to converge")
}

// bufferFilters verifies that the exp-channel with parameters p maps both a
// long worst-case train and a single max-length pulse to zero.
func bufferFilters(p delay.ExpParams, up, period float64) bool {
	pair, err := delay.Exp(p)
	if err != nil {
		return false
	}
	ch, err := core.New(pair, adversary.Eta{})
	if err != nil {
		return false
	}
	train, err := signal.Train(0, up, period, 200)
	if err != nil {
		return false
	}
	out, err := ch.Apply(train, adversary.Zero{})
	if err != nil || !out.IsZero() {
		return false
	}
	single, err := signal.Pulse(0, up)
	if err != nil {
		return false
	}
	out, err = ch.Apply(single, adversary.Zero{})
	return err == nil && out.IsZero()
}

// Node names of the built circuit.
const (
	NodeIn  = "i"
	NodeOut = "o"
	NodeOr  = "or"
	NodeHT  = "ht"
)

// Build constructs the Fig. 5 circuit: input → OR (initial 0), OR fed back
// through the loop channel driven by newStrategy (nil = zero adversary),
// OR → high-threshold buffer (deterministic exp-channel) → output.
func (s *System) Build(newStrategy func() adversary.Strategy) (*circuit.Circuit, error) {
	loopModel, err := channel.NewInvolution(s.Loop, newStrategy)
	if err != nil {
		return nil, err
	}
	bufPair, err := delay.Exp(s.Buffer)
	if err != nil {
		return nil, err
	}
	bufCh, err := core.New(bufPair, adversary.Eta{})
	if err != nil {
		return nil, err
	}
	bufModel, err := channel.NewInvolution(bufCh, nil)
	if err != nil {
		return nil, err
	}

	c := circuit.New("spf")
	steps := []error{
		c.AddInput(NodeIn),
		c.AddOutput(NodeOut),
		c.AddGate(NodeOr, gate.Or(2), signal.Low),
		c.AddGate(NodeHT, gate.Buf(), signal.Low),
		c.Connect(NodeIn, NodeOr, 0, nil),
		c.Connect(NodeOr, NodeOr, 1, loopModel),
		c.Connect(NodeOr, NodeHT, 0, bufModel),
		c.Connect(NodeHT, NodeOut, 0, nil),
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

// RunPulse simulates the SPF circuit for an input pulse of length delta0 at
// time 0 under the given loop adversary and returns the signals of NodeOut,
// NodeOr and the further nodes named in record.
func (s *System) RunPulse(delta0 float64, newStrategy func() adversary.Strategy, horizon float64, record ...string) (*sim.Result, error) {
	c, err := s.Build(newStrategy)
	if err != nil {
		return nil, err
	}
	var in signal.Signal
	if delta0 > 0 {
		in, err = signal.Pulse(0, delta0)
		if err != nil {
			return nil, err
		}
	} else {
		in = signal.Zero()
	}
	return sim.Run(c, map[string]signal.Signal{NodeIn: in}, sim.Options{
		Horizon: horizon, MaxEvents: 1 << 22, Observer: s.Observer, Context: s.Context,
		Record: append([]string{NodeOr}, record...),
	})
}

// Observation classifies the simulated OR-loop output of one run.
type Observation struct {
	Delta0   float64
	Loop     signal.Signal // OR gate output
	Out      signal.Signal // circuit output (after the HT buffer)
	Resolved signal.Value  // final loop value
	// Pulses is the number of loop pulses (closed 1-intervals).
	Pulses int
	// MaxUpTail / MaxDutyTail / MinPeriodTail / MinDownTail are over
	// pulses n ≥ 1 (the Lemma 5 bounds hold from the first regenerated
	// pulse on): up-times ≤ Δ̄, duty ≤ γ̄, periods ≥ P, down-times ≥ P−Δ̄.
	MaxUpTail     float64
	MaxDutyTail   float64
	MinPeriodTail float64
	MinDownTail   float64
	// Stabilized is true when the loop reached a constant value with slack
	// before the horizon, i.e. the run was not truncated mid-oscillation.
	Stabilized bool
	// StabilizationTime is the last loop transition time.
	StabilizationTime float64
	// Stats is the execution profile of the underlying simulation.
	Stats sim.RunStats
}

// Observe runs the circuit and extracts the Lemma 5 / Theorem 9 metrics.
func (s *System) Observe(delta0 float64, newStrategy func() adversary.Strategy, horizon float64) (Observation, error) {
	res, err := s.RunPulse(delta0, newStrategy, horizon)
	if err != nil {
		return Observation{}, err
	}
	loop := res.Signals[NodeOr]
	stats, err := signal.Analyze(loop)
	if err != nil {
		return Observation{}, err
	}
	minDown := math.Inf(1)
	for i := 1; i < len(stats.DownTimes); i++ {
		if d := stats.DownTimes[i]; d < minDown {
			minDown = d
		}
	}
	obs := Observation{
		Delta0:            delta0,
		Loop:              loop,
		Out:               res.Signals[NodeOut],
		Resolved:          loop.Final(),
		Pulses:            len(loop.Pulses()),
		MaxUpTail:         stats.MaxUpTime(1),
		MaxDutyTail:       stats.MaxDutyCycle(1),
		MinPeriodTail:     stats.MinPeriod(1),
		MinDownTail:       minDown,
		StabilizationTime: loop.StabilizationTime(),
		Stats:             res.Stats,
	}
	// The run is considered stabilized if the loop has been constant for
	// longer than the worst-case regeneration period before the horizon.
	obs.Stabilized = horizon-obs.StabilizationTime > 4*(s.Analysis.Period+s.Analysis.LockBound)
	return obs, nil
}

// CheckConditions holds the outcome of the F1–F4 checks of Definition 2.
type CheckConditions struct {
	WellFormed   bool    // F1: one input, one output port
	NoGeneration bool    // F2: zero input → zero output
	Nontrivial   bool    // F3: some pulse yields a non-zero output
	Epsilon      float64 // F4: smallest output pulse observed (+Inf if none)
	NoShortPulse bool    // F4 with the given threshold
}

// Check verifies F1–F4 over the given input pulse widths and adversaries.
// F4 uses eps as the required minimum output pulse length; with the
// high-threshold buffer the output should contain no pulses at all in the
// Theorem 12 cases, so Epsilon is normally +Inf.
func (s *System) Check(widths []float64, strategies []func() adversary.Strategy, horizon, eps float64) (CheckConditions, error) {
	c, err := s.Build(nil)
	if err != nil {
		return CheckConditions{}, err
	}
	cc := CheckConditions{
		WellFormed: len(c.Inputs()) == 1 && len(c.Outputs()) == 1,
		Epsilon:    math.Inf(1),
	}

	// F2: zero input.
	for _, mk := range strategies {
		res, err := s.RunPulse(0, mk, horizon)
		if err != nil {
			return cc, err
		}
		if res.Signals[NodeOut].IsZero() {
			cc.NoGeneration = true
		} else {
			cc.NoGeneration = false
			return cc, nil
		}
	}

	// F3/F4 over the pulse sweep.
	for _, w := range widths {
		for _, mk := range strategies {
			res, err := s.RunPulse(w, mk, horizon)
			if err != nil {
				return cc, err
			}
			out := res.Signals[NodeOut]
			if !out.IsZero() {
				cc.Nontrivial = true
			}
			if m := out.MinPulseLen(signal.High); m < cc.Epsilon {
				cc.Epsilon = m
			}
		}
	}
	cc.NoShortPulse = cc.Epsilon >= eps
	return cc, nil
}
