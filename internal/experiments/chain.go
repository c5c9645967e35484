package experiments

import (
	"fmt"
	"math"
	"math/rand"

	"involution/internal/adversary"
	"involution/internal/analog"
	"involution/internal/channel"
	"involution/internal/circuit"
	"involution/internal/core"
	"involution/internal/delay"
	"involution/internal/gate"
	"involution/internal/signal"
	"involution/internal/sim"
)

// ChainParams configures the 7-stage inverter-chain validation: the
// digital η-involution circuit model against the analog substrate (the
// experimental setup of Najvirt et al., GLSVLSI'15, which Section V
// builds on).
type ChainParams struct {
	Stages  int
	Tau     float64
	TP      float64
	Eta     adversary.Eta
	SineAmp float64 // supply sine amplitude for the noisy run
	Pulse   float64 // input pulse width
	Start   float64 // input pulse start
	Horizon float64
	Dt      float64
}

// DefaultChainParams returns the reference configuration.
func DefaultChainParams() ChainParams {
	return ChainParams{
		Stages:  7,
		Tau:     1,
		TP:      0.3,
		Eta:     adversary.Eta{Plus: 0.05, Minus: 0.05},
		SineAmp: 0.01,
		Pulse:   4,
		Start:   5,
		Horizon: 40,
		// Per-stage drive decisions are quantized to the integration grid,
		// so the digital-analog agreement scales with Dt · Stages.
		Dt: 1.0 / 1600,
	}
}

// ChainValidation is the outcome of the digital-versus-analog comparison.
type ChainValidation struct {
	// MaxAbsError is the largest |digital − analog| crossing-time error of
	// the deterministic (η = 0) model against the unperturbed analog chain
	// — the two must agree to integration accuracy, since the first-order
	// analog inverter *is* an exp-channel.
	MaxAbsError float64
	// Noisy run: per-transition crossing times of the supply-perturbed
	// analog chain must lie within the digital envelope spanned by the
	// all-early (−η⁻) and all-late (+η⁺) adversaries.
	EnvelopeViolations int
	Transitions        int
	// Sim aggregates the execution profiles of the three digital runs
	// (deterministic, all-early, all-late) — the experiment's event budget.
	Sim sim.RunStats
}

// digitalChain builds the inverter-chain circuit with one exp-channel per
// stage and the given adversary factory on every channel.
func digitalChain(p ChainParams, mk func() adversary.Strategy) (*circuit.Circuit, error) {
	pair, err := delay.Exp(delay.ExpParams{Tau: p.Tau, TP: p.TP, Vth: 0.5})
	if err != nil {
		return nil, err
	}
	c := circuit.New("chain")
	if err := c.AddInput("i"); err != nil {
		return nil, err
	}
	if err := c.AddOutput("o"); err != nil {
		return nil, err
	}
	prev := "i"
	initial := signal.High // input low → first inverter high, alternating
	for k := 0; k < p.Stages; k++ {
		name := fmt.Sprintf("n%d", k+1)
		if err := c.AddGate(name, gate.Not(), initial); err != nil {
			return nil, err
		}
		ch, err := core.New(pair, p.Eta)
		if err != nil {
			return nil, err
		}
		m, err := channel.NewInvolution(ch, mk)
		if err != nil {
			return nil, err
		}
		if err := c.Connect(prev, name, 0, m); err != nil {
			return nil, err
		}
		prev = name
		initial = initial.Not()
	}
	if err := c.Connect(prev, "o", 0, nil); err != nil {
		return nil, err
	}
	return c, nil
}

// runDigitalChain simulates the digital chain and returns the per-stage
// output signals along with the run's execution profile.
func runDigitalChain(p ChainParams, mk func() adversary.Strategy) ([]signal.Signal, sim.RunStats, error) {
	c, err := digitalChain(p, mk)
	if err != nil {
		return nil, sim.RunStats{}, err
	}
	in, err := signal.Pulse(p.Start, p.Pulse)
	if err != nil {
		return nil, sim.RunStats{}, err
	}
	stages := make([]string, p.Stages)
	for k := range stages {
		stages[k] = fmt.Sprintf("n%d", k+1)
	}
	res, err := sim.Run(c, map[string]signal.Signal{"i": in}, sim.Options{Horizon: p.Horizon, Record: stages})
	if err != nil {
		return nil, sim.RunStats{}, err
	}
	out := make([]signal.Signal, p.Stages)
	for k := 0; k < p.Stages; k++ {
		out[k] = res.Signals[stages[k]]
	}
	return out, res.Stats, nil
}

// runAnalogChain simulates the analog chain (optionally supply-perturbed)
// and returns the per-stage digitized signals.
func runAnalogChain(p ChainParams, sup analog.Supply) ([]signal.Signal, error) {
	stage := analog.Inverter{Model: analog.FirstOrder, Tau: p.Tau, TP: p.TP, Sup: sup}
	chain := analog.NewChain(p.Stages, stage)
	in, err := signal.Pulse(p.Start, p.Pulse)
	if err != nil {
		return nil, err
	}
	ws, err := chain.Simulate(in, p.Horizon, p.Dt)
	if err != nil {
		return nil, err
	}
	out := make([]signal.Signal, len(ws))
	nominal := 1.0
	if sup != nil {
		nominal = sup.Nominal()
	}
	for k, w := range ws {
		sig, err := w.Crossings(0.5 * nominal)
		if err != nil {
			return nil, err
		}
		out[k] = sig
	}
	return out, nil
}

// ChainCheck runs the full validation (see ChainValidation).
func ChainCheck(p ChainParams) (ChainValidation, error) {
	var v ChainValidation

	// Deterministic agreement.
	dig, st, err := runDigitalChain(p, nil)
	if err != nil {
		return v, err
	}
	v.Sim.Merge(st)
	ana, err := runAnalogChain(p, nil)
	if err != nil {
		return v, err
	}
	for k := range dig {
		if dig[k].Len() != ana[k].Len() || dig[k].Initial() != ana[k].Initial() {
			return v, fmt.Errorf("chain: stage %d shape mismatch: digital %v analog %v", k+1, dig[k], ana[k])
		}
		for i := 0; i < dig[k].Len(); i++ {
			e := math.Abs(dig[k].Transition(i).At - ana[k].Transition(i).At)
			if e > v.MaxAbsError {
				v.MaxAbsError = e
			}
		}
	}

	// Envelope bracketing of the noisy analog chain.
	early, st, err := runDigitalChain(p, func() adversary.Strategy {
		return adversary.Func(func(e adversary.Eta, _ adversary.Context) float64 { return -e.Minus })
	})
	if err != nil {
		return v, err
	}
	v.Sim.Merge(st)
	late, st, err := runDigitalChain(p, func() adversary.Strategy {
		return adversary.Func(func(e adversary.Eta, _ adversary.Context) float64 { return e.Plus })
	})
	if err != nil {
		return v, err
	}
	v.Sim.Merge(st)
	rng := rand.New(rand.NewSource(17))
	noisy, err := runAnalogChain(p, analog.SineSupply{
		V0: 1, Amp: p.SineAmp, Period: 2.7, Phase: 2 * math.Pi * rng.Float64(),
	})
	if err != nil {
		return v, err
	}
	for k := range noisy {
		if noisy[k].Len() != early[k].Len() || noisy[k].Len() != late[k].Len() {
			return v, fmt.Errorf("chain: stage %d noisy shape mismatch", k+1)
		}
		for i := 0; i < noisy[k].Len(); i++ {
			v.Transitions++
			at := noisy[k].Transition(i).At
			if at < early[k].Transition(i).At-1e-9 || at > late[k].Transition(i).At+1e-9 {
				v.EnvelopeViolations++
			}
		}
	}
	return v, nil
}
